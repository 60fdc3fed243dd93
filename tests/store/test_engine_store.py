"""SweepEngine x ResultStore: warm restarts and cross-process single-flight.

A store-backed engine must (a) never recompute what the store already
holds, (b) let exactly one claimant execute each family under
contention, and (c) recover leases abandoned by dead claimants without
wall-clock sleeps leaking into results.
"""

import multiprocessing as mp
import threading

import pytest

from repro import obs
from repro.core.experiment import ExperimentRunner
from repro.core.sweep import SweepEngine, expand_grid
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


GRID = expand_grid(("sg2042", "sg2044"), ("ep", "is"), thread_counts=(1, 2))


def test_warm_restart_executes_nothing(tmp_path):
    store = ResultStore(tmp_path / "store")
    cold = SweepEngine(store=store).run_many(GRID, on_dnr="none")

    recorder = obs.install()
    try:
        warm = SweepEngine(store=store).run_many(GRID, on_dnr="none")
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert warm == cold
    assert counters.get("sweep.configs_executed", 0) == 0
    assert counters["store.hits"] >= len(GRID)
    assert store.stats()["leases"] == 0  # nothing left behind


def _contend(store_root, queue):
    """Child process: 4 threads sweep the same grid against one store."""
    recorder = obs.install()
    engine = SweepEngine(store=ResultStore(store_root))
    results = [None] * 4

    def sweep(i):
        results[i] = engine.run_many(GRID, on_dnr="none")

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    queue.put(recorder.counters_snapshot().get("sweep.configs_executed", 0))


def test_two_processes_execute_each_config_once(tmp_path):
    """8 concurrent sweeps (2 processes x 4 threads), one execution each."""
    ctx = mp.get_context("fork")
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_contend, args=(tmp_path / "store", queue))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    executed = [queue.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
    assert all(p.exitcode == 0 for p in procs)
    # Every config computed exactly once across all 8 sweeps combined.
    assert sum(executed) == len(GRID)

    # And the store now warm-serves a ninth sweep with zero executions.
    recorder = obs.install()
    try:
        warm = SweepEngine(store=ResultStore(tmp_path / "store")).run_many(
            GRID, on_dnr="none"
        )
    finally:
        obs.disable()
    assert len(warm) == len(GRID)
    assert recorder.counters_snapshot().get("sweep.configs_executed", 0) == 0


def test_takeover_after_lease_timeout(tmp_path):
    """A lease whose holder died mid-run is broken and re-claimed."""
    store = ResultStore(tmp_path / "store", lease_timeout_s=0.05, poll_interval_s=0.01)
    # Simulate a crashed claimant: lease held, result never published.
    dead_key = SweepEngine().cache_key(GRID[0])
    assert store.try_lease(dead_key)

    recorder = obs.install()
    try:
        engine = SweepEngine(store=store)
        results = engine.run_many(GRID, on_dnr="none")
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert len(results) == len(GRID)
    assert counters["store.lease_timeouts"] >= 1
    assert store.stats()["leases"] == 0


def test_orphan_lease_taken_over_without_timeout(tmp_path):
    """If the foreign lease vanishes with no entry, take over immediately."""
    store = ResultStore(tmp_path / "store", lease_timeout_s=10.0, poll_interval_s=0.01)
    engine = SweepEngine(store=store)
    orphan_key = engine.cache_key(GRID[0])
    assert store.try_lease(orphan_key)

    # First wait iteration sleeps; release the lease there so the next
    # iteration observes lease-gone + entry-missing and claims it.
    engine._sleep = lambda _s: store.release_lease(orphan_key)

    recorder = obs.install()
    try:
        results = engine.run_many(GRID, on_dnr="none")
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert len(results) == len(GRID)
    assert counters["store.lease_takeovers"] >= 1
    assert counters.get("store.lease_timeouts", 0) == 0  # no 10 s wait burned
    assert store.stats()["leases"] == 0


class RacingStore(ResultStore):
    """Another process publishes ``key`` and drops its lease in the window
    between this engine's preload read and its own ``try_lease``."""

    def __init__(self, root, key, value):
        super().__init__(root)
        self.race = (key, value)

    def try_lease(self, key):
        if self.race is not None and key == self.race[0]:
            self.put_many(dict([self.race]))  # published; its lease is gone
            self.race = None
        return super().try_lease(key)


class OrphanRacingStore(ResultStore):
    """A foreign owner publishes and releases ``key`` between the waiter's
    absorb read and its ``lease_active`` check (the orphan branch)."""

    def __init__(self, root, key, value):
        super().__init__(root, lease_timeout_s=10.0, poll_interval_s=0.01)
        self.race = (key, value)

    def lease_active(self, key):
        if self.race is not None and key == self.race[0]:
            self.put_many(dict([self.race]))
            self.release_lease(key)
            self.race = None
        return super().lease_active(key)


def _executed(engine, grid):
    recorder = obs.install()
    try:
        results = engine.run_many(grid, on_dnr="none")
    finally:
        obs.disable()
    return results, recorder.counters_snapshot()


def test_key_published_before_our_lease_is_not_executed_again(tmp_path):
    expected = SweepEngine().run_many(GRID, on_dnr="none")
    raced = SweepEngine().cache_key(GRID[0])
    store = RacingStore(tmp_path / "store", raced, expected[0])
    engine = SweepEngine(store=store)

    results, counters = _executed(engine, GRID)

    assert store.race is None  # the race window was exercised
    assert results == expected
    assert counters["sweep.configs_executed"] == len(GRID) - 1
    assert store.stats()["leases"] == 0


def test_orphan_takeover_rechecks_the_store(tmp_path):
    expected = SweepEngine().run_many(GRID, on_dnr="none")
    raced = SweepEngine().cache_key(GRID[0])
    store = OrphanRacingStore(tmp_path / "store", raced, expected[0])
    assert store.try_lease(raced)  # held by the "other process"
    engine = SweepEngine(store=store)

    results, counters = _executed(engine, GRID)

    assert store.race is None
    assert results == expected
    assert counters["store.lease_takeovers"] == 1
    assert counters["sweep.configs_executed"] == len(GRID) - 1
    assert store.stats()["leases"] == 0


class GatedPreloadStore(ResultStore):
    """Holds the first ``get_many`` (the engine's preload) on a gate."""

    def __init__(self, root):
        super().__init__(root)
        self.preloading = threading.Event()
        self.release = threading.Event()

    def get_many(self, keys):
        if not self.preloading.is_set():
            self.preloading.set()
            assert self.release.wait(timeout=30)
        return super().get_many(keys)


class GatedRunner(ExperimentRunner):
    """Parks every family execution until ``gate`` opens."""

    def __init__(self, gate):
        super().__init__()
        self.gate = gate
        self.started = threading.Event()

    def run_many(self, configs):
        self.started.set()
        assert self.gate.wait(timeout=30)
        return super().run_many(configs)


def test_waiter_on_store_absorbed_keys_does_not_spin(tmp_path):
    """Store-absorbed keys leave the table without waking the batch's
    waiters early: a waiter sleeps until the batch ends, then returns
    without a single ``_reclaim``."""
    SweepEngine(store=ResultStore(tmp_path / "store")).run_many(GRID[:4])
    store = GatedPreloadStore(tmp_path / "store")
    gate = threading.Event()
    runner = GatedRunner(gate)
    engine = SweepEngine(runner=runner, store=store)
    reclaims = []
    reclaim = engine._reclaim

    def counting_reclaim(missing):
        reclaims.append(len(missing))
        return reclaim(missing)

    engine._reclaim = counting_reclaim
    recorder = obs.install()
    out: dict[str, list] = {}
    owner = threading.Thread(target=lambda: out.setdefault("owner", engine.run_many(GRID)))
    waiter = threading.Thread(target=lambda: out.setdefault("waiter", engine.run_many(GRID[:6])))
    try:
        owner.start()
        assert store.preloading.wait(timeout=30)
        # The waiter arrives while every key is claimed and none absorbed.
        waiter.start()
        for _ in range(3000):
            if recorder.counters_snapshot().get("sweep.containment_waits", 0):
                break
            gate.wait(0.01)
        assert recorder.counters_snapshot().get("sweep.containment_waits", 0) == 1
        store.release.set()
        # The owner absorbed GRID[:4] and is parked executing the rest;
        # the waiter's absorbed keys must not have woken it.
        assert runner.started.wait(timeout=30)
        waiter.join(timeout=0.2)
        assert waiter.is_alive()
        assert reclaims == []
    finally:
        store.release.set()
        gate.set()
        owner.join(timeout=30)
        waiter.join(timeout=30)
        obs.disable()
    assert not owner.is_alive() and not waiter.is_alive()
    assert reclaims == []
    assert out["waiter"] == out["owner"][:6]
    assert recorder.counters_snapshot()["sweep.configs_executed"] == len(GRID) - 4
    assert engine._inflight == {}
    assert store.stats()["leases"] == 0
