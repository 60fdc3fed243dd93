"""Repo-aware static analysis: the invariants no runtime test can see.

The harness's correctness guarantees are conventions about *how* code is
written: seeded ``Generator`` streams so SweepEngine memoisation stays
byte-identical, lock-guarded module-level caches shared by the service's
``JobManager`` worker threads and the :mod:`repro._two_threads` helper,
suffix-carrying unit names in the machine catalog and performance model,
one timing funnel, classified exception handling, and store paths owned
by the store.  This package turns those conventions into lint rules:

=====  ===============================================================
R001   determinism -- no global-state RNG or wall-clock on model paths
R002   concurrency -- module-level mutable state only under a lock
R003   units -- no arithmetic across ``_bytes``/``_ghz``/``_ns``/... suffixes
R006   telemetry -- timing and spans only through ``repro.obs``
R007   resilience -- broad handlers re-raise or classify
R009   lock-order -- no lock pair taken in both orders
R010   blocking-under-lock -- no wait/sleep/I/O while a lock is held
R012   storeio -- result-store paths written only by ``repro.store``
=====  ===============================================================

Facts a test can read from live objects (catalog invariants, registry
completeness, bench recording) are tests, not rules.

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
