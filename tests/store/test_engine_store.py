"""SweepEngine x ResultStore: warm restarts and shared stores.

A store-backed engine must (a) never recompute what the store already
holds, (b) execute each config at most once per process under thread
contention, and (c) share one store with another process without
coordination: both write identical bytes, and the store ends with one
object per key.
"""

import multiprocessing as mp
import threading

import pytest

from repro import obs
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
    executed = recorder.counters_snapshot().get("sweep.configs_executed", 0)
    queue.put((executed, results[0]))


def test_two_processes_execute_each_config_once(tmp_path):
    """8 concurrent sweeps (2 processes x 4 threads) on one store.

    The processes do not coordinate: each may execute a config the other
    also executes, but in-process single-flight holds, so no process
    executes a config twice.  Both write identical bytes, and the store
    ends with one object per key and no temporary residue.
    """
    # spawn, not fork: the test process may already run threads.
    ctx = mp.get_context("spawn")
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_contend, args=(tmp_path / "store", queue))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    outcomes = [queue.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
    assert all(p.exitcode == 0 for p in procs)
    expected = SweepEngine().run_many(GRID, on_dnr="none")
    for executed, results in outcomes:
        assert executed <= len(GRID)
        assert results == expected
    objects = sorted((tmp_path / "store" / "objects").iterdir())
    assert len(objects) == len(GRID)
    assert all(path.suffix == ".json" for path in objects)
    assert not list((tmp_path / "store").rglob("*.tmp"))

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


class GatedEngine(SweepEngine):
    """Parks every family commit until ``gate`` opens."""

    def __init__(self, gate, store):
        super().__init__(store=store)
        self.gate = gate
        self.started = threading.Event()

    def _commit_outcome(self, keys, outcome):
        self.started.set()
        assert self.gate.wait(timeout=30)
        super()._commit_outcome(keys, outcome)


def test_waiter_on_store_absorbed_keys_does_not_spin(tmp_path):
    """Store-absorbed keys leave the table without waking the batch's
    waiters early: a waiter sleeps until the batch ends, then returns
    without a single ``_reclaim``."""
    SweepEngine(store=ResultStore(tmp_path / "store")).run_many(GRID[:4])
    store = GatedPreloadStore(tmp_path / "store")
    gate = threading.Event()
    engine = GatedEngine(gate, store)
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
        # The owner absorbed GRID[:4] and is parked committing the rest;
        # the waiter's absorbed keys must not have woken it.
        assert engine.started.wait(timeout=30)
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


def test_interrupted_export_resumes_byte_identical(tmp_path):
    """Interrupt + resume through ``--store`` == an uninterrupted export."""
    from repro.cli import main
    from repro.core.sweep import clear_caches, set_default_store

    out_a = tmp_path / "uninterrupted"
    out_b = tmp_path / "resumed"
    store_dir = tmp_path / "store"
    try:
        clear_caches()
        assert main(["export", str(out_a)]) == 0

        # "Interrupt": land only part of the grid in the store, cold
        # caches again, then resume the full export against the store.
        clear_caches()
        assert main(["table", "3", "--store", str(store_dir)]) == 0
        assert ResultStore(store_dir).stats()["entries"] > 0
        clear_caches()
        assert main(["export", str(out_b), "--store", str(store_dir)]) == 0
    finally:
        set_default_store(None)
        clear_caches()

    for artifact in sorted(out_a.iterdir()):
        assert (out_b / artifact.name).read_bytes() == artifact.read_bytes()
