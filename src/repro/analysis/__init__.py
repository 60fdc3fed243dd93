"""Repo-aware static analysis: the invariants the harness only promised.

PR 1's correctness guarantees are conventions -- seeded ``Generator``
streams so SweepEngine memoisation stays byte-identical, lock-guarded
module-level caches, suffix-carrying unit names in the machine catalog and
performance model, scalar/grid method parity in :class:`PerformanceModel`.
This package turns those conventions into machine-checked lint rules:

=====  ===============================================================
R001   determinism -- no global-state RNG or wall-clock on model paths
R002   concurrency -- module-level mutable state only under a lock
R003   units -- no arithmetic across ``_bytes``/``_ghz``/``_ns``/... suffixes
R004   catalog -- Table 5 invariants on machine-catalog literals
R005   parity -- the trace-engine pair and complete kernel registration
=====  ===============================================================

Entry points: :func:`run_analysis` (programmatic), ``repro lint`` (CLI),
``make lint`` (CI).  Suppress a finding in place with
``# repro: noqa[R00x]`` on the offending line.
"""

from __future__ import annotations

from .core import (
    AnalysisReport,
    Finding,
    ProjectRule,
    Rule,
    SourceModule,
    run_analysis,
)
from .registry import all_rules, get_rule, register, rules_for
from .reporting import render_json, render_text

__all__ = [
    "AnalysisReport",
    "Finding",
    "Rule",
    "ProjectRule",
    "SourceModule",
    "run_analysis",
    "all_rules",
    "get_rule",
    "register",
    "rules_for",
    "render_text",
    "render_json",
]
