"""Benchmark harness configuration and shared measurement helpers.

Each ``bench_*.py`` file is a named suite of the ``repro bench`` gate
(``bench_store.py`` -> suite ``store``).  Shape assertions and speedup
floors inside the benchmarks keep them honest -- a regression that
breaks a measured property fails the bench, not just slows it.

The measurement discipline lives in :mod:`repro.bench.fixtures` (one
implementation, shared with the gate's toy suites):

``time_best_of``
    Best-of-N wall clock through ``obs.host_timer``, gc paused, with a
    minimum-elapsed floor so throughput ratios can divide by it
    unconditionally.
``escalate_until``
    The shared-CI noise counter: re-measure until a headline ratio
    clears its margin or the round budget runs out.
``bench_artifact``
    A session-scoped recorder that writes this session's entries to
    ``REPRO_BENCH_ARTIFACT`` at teardown, and nothing when it is unset:
    a plain ``pytest benchmarks/`` never touches the committed baseline
    ``benchmarks/bench_artifact.json``.  ``repro bench`` rewrites the
    baseline from the recorded entries and ``repro bench --check``
    gates a fresh run against it.
``require_bench_record``
    Autouse: a test that requests ``benchmark``, ``time_best_of`` or
    ``escalate_until`` and ends without calling ``bench_artifact``
    fails, so every measured number reaches the gate.
"""

from repro.bench.fixtures import (  # noqa: F401  (fixtures re-exported to pytest)
    bench_artifact,
    escalate_until,
    require_bench_record,
    time_best_of,
)
