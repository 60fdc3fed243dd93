"""Checkpoint/resume through the result store.

The store is the only durable tier: an interrupted sweep resumes from
the families it already published, entries written under different
runner settings are never served, and one damaged entry costs only its
own recompute.
"""

import threading

import pytest

from repro import obs
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.sweep import SweepEngine, expand_grid
from repro.store import ResultStore

GRID = expand_grid(("sg2044", "sg2042"), ("is", "ep", "mg"), thread_counts=(1, 8))


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


class CountingEngine(SweepEngine):
    """Counts family commits so resume tests can prove work was skipped."""

    def __init__(self, store) -> None:
        super().__init__(store=store)
        self.calls = 0
        self._count_lock = threading.Lock()

    def _commit_outcome(self, keys, outcome):
        with self._count_lock:
            self.calls += 1
        super()._commit_outcome(keys, outcome)


def _objects(root):
    return sorted((root / "objects").iterdir())


def test_interrupted_run_resumes_from_completed_families(tmp_path):
    # "Interrupted" run: only the first two families complete.
    first = CountingEngine(ResultStore(tmp_path / "store"))
    first.run_many(GRID[:4])
    assert first.calls == 2

    # Resumed run over the full grid: only the remaining families execute.
    engine = CountingEngine(ResultStore(tmp_path / "store"))
    resumed = engine.run_many(GRID)
    assert engine.calls == 4  # 6 families in all, 2 already stored

    # Bit-identical to a cold run with no store anywhere.
    assert resumed == SweepEngine().run_many(GRID)


def test_entries_from_other_runner_settings_are_never_served(tmp_path):
    SweepEngine(ExperimentRunner(seed=1), store=tmp_path / "store").run_many(GRID)

    other = CountingEngine(tmp_path / "store")  # default seed != 1
    other.run_many(GRID)
    assert other.calls == 6  # nothing matched; everything ran
    assert len(_objects(tmp_path / "store")) == 2 * len(GRID)


def test_one_corrupt_entry_does_not_poison_the_rest(tmp_path):
    root = tmp_path / "store"
    reference = SweepEngine(store=ResultStore(root)).run_many(GRID)
    victim = _objects(root)[0]
    victim.write_text('{"version": 1, "key": ["torn')

    recorder = obs.install()
    try:
        again = SweepEngine(store=ResultStore(root)).run_many(GRID)
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()
    assert again == reference
    assert counters["store.corrupt_entries"] == 1
    assert counters["store.hits"] == len(GRID) - 1
    # The redone entry is published again, whole.
    assert len(_objects(root)) == len(GRID)
    assert ResultStore(root).get_many(
        [SweepEngine().cache_key(c) for c in GRID]
    ) == {SweepEngine().cache_key(c): r for c, r in zip(GRID, reference)}


def test_missing_root_reads_as_empty_and_is_not_created(tmp_path):
    store = ResultStore(tmp_path / "nope")
    assert store.get(("k",)) is None
    assert store.stats()["entries"] == 0
    assert not (tmp_path / "nope").exists()


def test_dnr_verdict_replayed_from_store(tmp_path):
    config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")
    first = CountingEngine(tmp_path / "store")
    assert first.run_many([config], on_dnr="none") == [None]
    assert first.calls == 1

    replay = CountingEngine(tmp_path / "store")
    assert replay.run_many([config], on_dnr="none") == [None]
    assert replay.calls == 0  # the verdict is a result: restored, not re-derived


def test_one_object_per_key_and_no_temporary_residue(tmp_path):
    root = tmp_path / "store"
    SweepEngine(store=ResultStore(root)).run_many(GRID)
    SweepEngine(store=ResultStore(root)).run_many(GRID)
    names = [p.name for p in _objects(root)]
    assert len(names) == len(GRID)
    assert all(name.endswith(".json") for name in names)
    assert not list(root.rglob("*.tmp"))


def test_independent_stores_on_one_root_publish_concurrently(tmp_path):
    """Uncoordinated writers of the same keys: identical bytes, one object each."""
    root = tmp_path / "store"
    n_writers = 4
    start = threading.Barrier(n_writers)
    outcomes = [None] * n_writers
    errors = []

    def sweep(i):
        start.wait()
        try:
            outcomes[i] = SweepEngine(store=ResultStore(root)).run_many(GRID)
        except Exception as exc:  # any failure fails the test
            errors.append(exc)

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(n_writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert len(_objects(root)) == len(GRID)
    assert not list(root.rglob("*.tmp"))
    warm = CountingEngine(ResultStore(root))
    assert warm.run_many(GRID) == outcomes[0]
    assert warm.calls == 0
