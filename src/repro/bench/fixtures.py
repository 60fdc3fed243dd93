"""Shared pytest measurement fixtures for the ``benchmarks/`` suite.

``benchmarks/conftest.py`` (and any satellite bench directory, e.g. the
toy suites the gate's tests spin up) imports its fixtures from here, so
the measurement discipline -- gc-paused best-of-N, the minimum-elapsed
floor, escalation under CI load, and the artifact write -- has exactly
one implementation.

``time_best_of``
    Best-of-N wall clock through ``obs.host_timer`` (the one sanctioned
    measurement site), gc paused.  Timed regions faster than the timer
    can resolve used to return 0.0 and blow up every ``ops = n /
    elapsed`` ratio downstream; the helper now re-runs its reps until
    the best observation clears :data:`MIN_ELAPSED_S` (or the retry
    budget runs out) and never returns below the floor.
``escalate_until``
    Re-measure until a headline ratio clears its margin or the round
    budget runs out (applied symmetrically to both sides of a ratio).
``bench_artifact``
    A session-scoped recorder whose teardown writes the session's
    entries to ``REPRO_BENCH_ARTIFACT`` -- the channel the ``repro
    bench`` runner reads its pytest subprocess back through -- and
    writes nothing when that variable is unset, so a plain ``pytest
    benchmarks/`` never touches the committed baseline.  Each entry is
    tagged with its suite (the ``bench_<suite>.py`` stem, read from
    ``PYTEST_CURRENT_TEST``), which is what the runner's subset merge
    and escalation re-runs key on.
"""

from __future__ import annotations

import gc
import os
import re
from pathlib import Path

import pytest

from . import schema

__all__ = [
    "MIN_ELAPSED_S",
    "time_best_of_impl",
    "escalate_until_impl",
    "current_suite",
    "ArtifactRecorder",
    "time_best_of",
    "escalate_until",
    "bench_artifact",
]

#: Floor on any best-of-N elapsed time.  Below this the reading is
#: indistinguishable from timer resolution, so throughput ratios built
#: on it (``n / elapsed``) are garbage -- or, at exactly 0.0, a
#: ZeroDivisionError.  perf_counter resolves to nanoseconds on every
#: platform the repo targets, so 1 microsecond is comfortably above
#: resolution while far below any real timed region here.
MIN_ELAPSED_S = 1e-6

#: Extra best-of-N rounds to spend trying to observe a measurable
#: elapsed time before clamping to the floor.
_FLOOR_RETRY_ROUNDS = 3

_CURRENT_TEST_RE = re.compile(r"(?:^|[/\\])bench_([A-Za-z0-9_]+)\.py::")


def time_best_of_impl(label, fn, reps, *, setup=None, timer=None, calls=1):
    """Best-of-``reps`` runtime of ``fn`` plus its last return value.

    ``calls`` > 1 runs ``fn`` that many times back to back in each timed
    sample and returns the per-call time: a sub-millisecond body then
    gets a sample long enough (aim for >= ~20 ms) for its best-of-N to
    sit inside the gate's margin on a shared host.

    ``setup`` (when given) runs once per rep *outside* the timed region
    and its return value is passed to ``fn`` -- use it for fresh-state
    cold-path measurements (a new engine, a rebuilt hierarchy).  Timing
    goes through ``obs.host_timer(f"bench.{label}")`` so the interval
    also lands in the telemetry report's ``timings`` section when a
    recorder is installed.

    The return value is never below :data:`MIN_ELAPSED_S`: a region the
    timer cannot resolve is re-measured for up to
    ``_FLOOR_RETRY_ROUNDS`` extra rounds, then clamped, so callers can
    divide by it unconditionally.
    """
    if timer is None:
        from repro import obs

        def timer(body):
            with obs.host_timer(f"bench.{label}") as t:
                result = body()
            return t.elapsed_s, result

    best_s = None
    result = None

    def one_round():
        nonlocal best_s, result
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(reps):
                args = () if setup is None else (setup(),)
                elapsed_s, result_ = timer(lambda a=args: _call_repeatedly(fn, a, calls))
                elapsed_s /= calls
                result = result_
                if best_s is None or elapsed_s < best_s:
                    best_s = elapsed_s
        finally:
            if gc_was_enabled:
                gc.enable()

    one_round()
    rounds = 0
    while best_s < MIN_ELAPSED_S and rounds < _FLOOR_RETRY_ROUNDS:
        rounds += 1
        # A sub-resolution best is garbage, not a record: discard it so
        # the retry can actually surface a measurable observation.
        best_s = None
        one_round()
    return max(best_s, MIN_ELAPSED_S), result


def _call_repeatedly(fn, args, calls):
    for _ in range(calls - 1):
        fn(*args)
    return fn(*args)


def escalate_until_impl(headline, remeasure, *, margin, max_rounds):
    """Re-measure until ``headline()`` clears ``margin``; returns rounds used.

    Shared CI boxes see minutes-long host-load epochs that move the two
    sides of a speedup ratio differently, so a single measurement round
    can understate either side.  Each ``remeasure()`` call should fold
    fresh samples into accumulated per-side minima.
    """
    rounds = 0
    while headline() < margin and rounds < max_rounds:
        rounds += 1
        remeasure()
    return rounds


def current_suite(environ=None) -> str | None:
    """The bench suite the currently executing test belongs to.

    Derived from pytest's ``PYTEST_CURRENT_TEST`` (set for the duration
    of every test phase): ``benchmarks/bench_store.py::test_x (call)``
    -> ``"store"``.  ``None`` outside a bench test.
    """
    current = (environ or os.environ).get("PYTEST_CURRENT_TEST", "")
    match = _CURRENT_TEST_RE.search(current)
    return match.group(1) if match else None


class ArtifactRecorder:
    """Collects ``(label, **fields)`` entries; flushes one artifact.

    Entries recorded with the same label within one session keep the
    last recording (a re-measured entry supersedes its earlier self).
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict] = {}

    def record(self, label: str, **fields) -> None:
        suite = fields.pop("suite", None) or current_suite()
        self._entries[label] = {"label": label, "suite": suite, **fields}

    def entries(self) -> list[dict]:
        return sorted(self._entries.values(), key=lambda e: e["label"])

    def flush(self) -> Path | None:
        """Write this session's entries to ``REPRO_BENCH_ARTIFACT``.

        Returns the path written, or ``None`` when the variable is unset
        (nothing is written).
        """
        target = os.environ.get("REPRO_BENCH_ARTIFACT")
        if not target:
            return None
        path = Path(target)
        schema.write_artifact(
            path, {"schema_version": schema.SCHEMA_VERSION, "entries": self.entries()}
        )
        return path


@pytest.fixture(scope="session")
def time_best_of():
    return time_best_of_impl


@pytest.fixture(scope="session")
def escalate_until():
    return escalate_until_impl


@pytest.fixture(scope="session")
def bench_artifact():
    recorder = ArtifactRecorder()
    yield recorder.record
    recorder.flush()
