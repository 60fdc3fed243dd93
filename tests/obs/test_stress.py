"""Concurrency stress: one engine, eight hammering threads, no double work.

The single-flight table in :class:`SweepEngine` guarantees each cache key
executes exactly once no matter how many ``run_many`` calls race.  An
engine that counts at its per-family commit observes actual executions;
the barrier maximises the overlap window.
"""

import threading

import pytest

from repro import obs
from repro.core.sweep import SweepEngine, expand_grid
from repro.obs.export import report_dict

N_THREADS = 8


class CountingEngine(SweepEngine):
    """Counts how many times each config is actually executed (committed)."""

    def __init__(self) -> None:
        super().__init__()
        self.executions: dict[tuple, int] = {}
        self._count_lock = threading.Lock()

    def _commit_outcome(self, keys, outcome):
        with self._count_lock:
            for key in keys:
                self.executions[key] = self.executions.get(key, 0) + 1
        super()._commit_outcome(keys, outcome)


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


def _hammer(engine, grid, n_threads=N_THREADS):
    """``n_threads`` concurrent run_many calls over the same grid."""
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def work(i):
        try:
            barrier.wait()
            results[i] = engine.run_many(grid, on_dnr="none")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    return results


def test_no_duplicate_executions_under_contention():
    grid = expand_grid(
        ("sg2044", "sg2042", "epyc7742"),
        ("is", "ep", "cg", "mg"),
        thread_counts=(1, 2, 4, 8),
    )
    n_unique = len(grid)
    for _ in range(5):
        engine = CountingEngine()
        rec = obs.install()
        try:
            results = _hammer(engine, grid)
        finally:
            obs.disable()

        # Every config executed exactly once across all eight callers.
        assert sum(engine.executions.values()) == n_unique
        assert set(engine.executions.values()) == {1}
        # All callers observed identical results.
        assert all(r == results[0] for r in results[1:])
        assert all(r is not None for r in results[0])
        # Engine and telemetry agree: one miss per unique config, the
        # remaining (N_THREADS - 1) * n_unique requests were hits.
        assert engine.misses == n_unique
        assert engine.hits == (N_THREADS - 1) * n_unique
        counters = report_dict(rec)["counters"]
        assert counters["sweep.configs_executed"] == n_unique
        assert counters["sweep.cache_misses"] == n_unique
        assert counters["sweep.configs_requested"] == N_THREADS * n_unique
        assert rec.quiescent()


class FatalThenHealedEngine(CountingEngine):
    """One family is fatal for its first ``failures`` executions."""

    def __init__(self, poison_kernel: str, failures: int) -> None:
        super().__init__()
        self.poison_kernel = poison_kernel
        self.failures = failures
        self.poison_attempts = 0
        self._fail_lock = threading.Lock()

    def _commit_outcome(self, keys, outcome):
        if keys[0][4] == self.poison_kernel:  # compute_cache_key's kernel field
            with self._fail_lock:
                self.poison_attempts += 1
                if self.failures > 0:
                    self.failures -= 1
                    raise RuntimeError("poisoned family")
        super()._commit_outcome(keys, outcome)


def _hammer_collecting(engine, grid, n_threads=N_THREADS):
    """Like :func:`_hammer`, but failures are data, not test errors."""
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []
    errors_lock = threading.Lock()

    def work(i):
        try:
            barrier.wait()
            results[i] = engine.run_many(grid, on_dnr="none")
        except Exception as exc:
            with errors_lock:
                errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads), "a caller hung"
    return results, errors


def test_injected_fatal_failures_never_hang_waiters():
    """A failing claimant must release its claim: waiters re-claim, not hang.

    The poisoned family fails its first two executions; eight racing
    callers sort themselves out -- two absorb the failures, the rest get
    full results -- and the single-flight table fully drains.
    """
    grid = expand_grid(("sg2044",), ("is", "ep", "cg", "mg"), thread_counts=(1, 2, 4, 8))
    engine = FatalThenHealedEngine(poison_kernel="mg", failures=2)
    rec = obs.install()
    try:
        results, errors = _hammer_collecting(engine, grid)
    finally:
        obs.disable()

    # Exactly the injected failures surfaced, each to exactly one caller.
    assert len(errors) == 2
    assert all(isinstance(e, RuntimeError) for e in errors)
    completed = [r for r in results if r is not None]
    assert len(completed) == N_THREADS - 2
    assert all(r == completed[0] for r in completed)
    # The poisoned family was attempted failures + 1 times, succeeding
    # once; every config (healthy or poisoned) executed exactly once.
    assert engine.poison_attempts == 3
    assert set(engine.executions.values()) == {1}
    assert sum(engine.executions.values()) == len(grid)
    # No claim leaked: the table drained even through the failures.
    assert engine._inflight == {}
    assert rec.quiescent()


def test_contended_dnr_family_resolves_once():
    grid = expand_grid(("allwinner-d1",), ("ft",), classes="B", thread_counts=1)
    engine = CountingEngine()
    results = _hammer(engine, grid, n_threads=4)
    # The DNR family executed once; every caller got the None slot.
    assert sum(engine.executions.values()) == 1
    assert all(r == [None] for r in results)
    assert engine.dnr_configs == 4
