"""repro.bench -- the committed perf baseline and its regression gate.

Measured speedups (batched sweeps, the vectorized cache simulator,
store-warm campaigns) are claims about *time*, and time regresses
silently unless something keeps score.  This package is that something:
one committed baseline, ``benchmarks/bench_artifact.json``, and one gate
comparing a fresh run against it -- the same discipline the SG2042 /
SG2044 papers apply to their NPB/STREAM/HPL suites across hardware
generations (same benchmarks, kept results, explicit deltas).  The
trajectory is the file's git history (``git log -p``).

Layers
------
:mod:`~repro.bench.schema`
    The schema-v2 benchmark artifact: suite-tagged entries plus the
    metadata of the run that last rewrote it (git sha, timestamp,
    machine fingerprint, suites run, escalation rounds).
:mod:`~repro.bench.compare`
    Field directions, the fixed regression margin, and the delta
    classification (`ok` / `regression` / `improved` / `seeded`) the
    gate's exit code folds down from.
:mod:`~repro.bench.runner`
    ``repro bench`` / ``repro bench --check``: run a named suite
    subset through pytest, fold the paper-fidelity scorecard into the
    same entries, then rewrite the baseline's rows for those suites,
    or compare against it with escalate-until re-measurement before
    declaring a regression.
:mod:`~repro.bench.fixtures`
    The shared pytest fixtures every ``benchmarks/bench_*.py`` file
    records through (``bench_artifact``, ``time_best_of``,
    ``escalate_until``); the autouse ``require_bench_record`` fails any
    test that measures without recording, which keeps adoption total.
"""

from __future__ import annotations

from .compare import Delta, compare_entries, regressions, render_deltas
from .runner import BenchError, check_run, discover_suites, record_run
from .schema import (
    SCHEMA_VERSION,
    load_artifact,
    merge_artifact,
    run_metadata,
    write_artifact,
)

__all__ = [
    "SCHEMA_VERSION",
    "load_artifact",
    "merge_artifact",
    "run_metadata",
    "write_artifact",
    "Delta",
    "compare_entries",
    "regressions",
    "render_deltas",
    "BenchError",
    "discover_suites",
    "record_run",
    "check_run",
]
