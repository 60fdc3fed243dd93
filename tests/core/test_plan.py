"""The megagrid planner: bit-identity with a config-at-a-time oracle.

The planner is the only evaluation route, and its whole contract is
*exactness*: results and DNR entries must equal the one-config-at-a-time
oracle in ``tests/oracle.py`` (public ``predict`` plus the config's own
seeded noise stream), and the counters and span tree must be a function
of the families committed -- across random subgrids (property-based),
on invalid input, and for the subgrid-containment path in the
single-flight table.
"""

import ctypes
import random
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.calibration import anchor_for
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.perfmodel import DNRError, PerformanceModel
from repro.core import plan as plan_module
from repro.core.plan import _pcg64_words, _state_address, plan_groups
from repro.core.sweep import SweepEngine, expand_grid
from repro.machines.catalog import get_machine, machine_names
from repro.npb.signatures import signature_for
from repro.store import ResultStore
from tests.oracle import scalar_run

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the test extra
    HAVE_HYPOTHESIS = False

_MACHINES = ("sg2044", "sg2042", "epyc7742", "skylake8170", "thunderx2", "allwinner-d1")
_KERNELS = ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp")
_THREADS = (1, 2, 4, 8, 16, 26, 32, 64)
_SEEDS = (0, 1, 7, 42, 1234, 65535)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Tests install their own recorders; never leak one across tests."""
    yield
    obs.disable()


def _random_grid(rng: random.Random) -> list[ExperimentConfig]:
    """A random subgrid: 1-4 families, threads capped per machine."""
    configs: list[ExperimentConfig] = []
    for _ in range(rng.randint(1, 4)):
        machine = rng.choice(_MACHINES)
        n_cores = get_machine(machine).n_cores
        threads = [t for t in _THREADS if t <= n_cores]
        picked = rng.sample(threads, rng.randint(1, len(threads)))
        kernel = rng.choice(_KERNELS)
        for n in sorted(picked):
            configs.append(
                ExperimentConfig(
                    machine=machine,
                    kernel=kernel,
                    npb_class=rng.choice("ABC"),
                    n_threads=n,
                    vectorise=rng.choice((True, False)),
                )
            )
    return configs


def _run_recorded(engine: SweepEngine, grid):
    """Run a grid under a fresh recorder; return (results, counters, spans)."""
    rec = obs.install()
    try:
        results = engine.run_many(grid, on_dnr="none")
    finally:
        obs.disable()
    assert rec.quiescent()
    return results, rec.counters_snapshot(), rec.span_tree()


def _oracle(runner, grid):
    """The oracle's result per slot, ``None`` for DNR configs."""
    results = []
    for config in grid:
        try:
            results.append(scalar_run(runner, config))
        except DNRError:
            results.append(None)
    return results


def _expected_telemetry(grid, results):
    """Counters and span tree of a cold run of ``grid`` on a fresh engine.

    One ``model.batch_*`` count and one ``group[kernel/class]`` span
    entry per thread-sweep family, in first-appearance order (spans
    merge by name); ``results`` (the oracle's, ``None`` for DNR) decide
    which families are DNR verdicts.
    """
    families: dict[tuple, list] = {}
    for config, result in zip(grid, results):
        family = families.setdefault(config.family_key(), [set(), result is None])
        family[0].add(config)
    dnr = [configs for configs, is_dnr in families.values() if is_dnr]
    live = [configs for configs, is_dnr in families.values() if not is_dnr]
    unique = sum(len(configs) for configs, _ in families.values())
    counters = {
        "model.batch_calls": len(families),
        "model.batch_points": unique,
        "sweep.cache_hits": len(grid) - unique,
        "sweep.cache_misses": unique,
        "sweep.configs_requested": len(grid),
        "sweep.dnr_configs": sum(1 for result in results if result is None),
    }
    if live:
        counters["sweep.groups_executed"] = len(live)
        counters["sweep.configs_executed"] = sum(len(configs) for configs in live)
    if dnr:
        counters["sweep.dnr_raises"] = len(dnr)
    groups: dict[str, int] = {}
    for key in families:
        name = f"group[{key[1]}/{key[2]}]"
        groups[name] = groups.get(name, 0) + 1
    children = [{"name": name, "count": n, "children": []} for name, n in groups.items()]
    spans = {
        "name": "session",
        "count": 1,
        "children": [{"name": "run_many", "count": 1, "children": children}],
    }
    return counters, spans


def _assert_differential(grid, calibrate=True):
    """Planner engine vs the oracle: results bit-identical, telemetry exact."""

    def runner():
        return ExperimentRunner(model=PerformanceModel(calibrate=calibrate))

    results, counters, spans = _run_recorded(SweepEngine(runner=runner()), grid)
    expected = _oracle(runner(), grid)
    assert results == expected
    assert (counters, spans) == _expected_telemetry(grid, expected)
    return results


def _mixed_batch() -> list[ExperimentConfig]:
    """Families interleaving machines in one block: different ``runs``,
    DNR families between live ones, and calibration anchors on several
    machines."""
    grid = []
    grid += expand_grid("sg2044", "is", classes="C", thread_counts=(1, 4, 64), runs=3)
    grid += expand_grid("allwinner-d1", "ft", classes="B", thread_counts=1)  # DNR
    grid += expand_grid("sg2042", "cg", classes="B", thread_counts=(2, 32), runs=1)
    grid += expand_grid("epyc7742", ("mg", "ep"), classes="A", thread_counts=(1, 8, 64), runs=7)
    grid += expand_grid("allwinner-d1", "ft", classes="C", thread_counts=1, runs=2)  # DNR
    grid += expand_grid("sg2044", "cg", classes="W", thread_counts=(2, 16), runs=4)
    grid += expand_grid("thunderx2", "bt", classes="W", thread_counts=(4, 16))  # no anchor
    grid += expand_grid(
        "skylake8170", "ft", classes="A", thread_counts=(1, 26), vectorise=(True, False), runs=2
    )
    grid += expand_grid("allwinner-d1", "is", classes="S", thread_counts=1, runs=6)
    grid += expand_grid("sg2042", "mg", classes="S", thread_counts=(1, 64), runs=1)
    return grid


class TestPlannerDifferential:
    if HAVE_HYPOTHESIS:

        @settings(max_examples=6, deadline=None, derandomize=True)
        @given(seed=st.integers(min_value=0, max_value=2**16))
        def test_random_subgrid_bit_identical(self, seed):
            self._check(seed)

    else:  # pragma: no cover - hypothesis always present in CI

        @pytest.mark.parametrize("seed", _SEEDS)
        def test_random_subgrid_bit_identical(self, seed):
            self._check(seed)

    def _check(self, seed):
        _assert_differential(_random_grid(random.Random(seed)))

    @pytest.mark.parametrize("calibrate", [True, False], ids=["calibrated", "raw"])
    def test_mixed_batch_bit_identical(self, calibrate):
        """The batch tail's running row and draw offsets, end to end."""
        grid = _mixed_batch()
        assert len({c.runs for c in grid}) >= 5
        anchored = {c.machine for c in grid if anchor_for(c.machine, c.kernel) is not None}
        assert len(anchored) >= 4
        results = _assert_differential(grid, calibrate=calibrate)
        dnr = [i for i, r in enumerate(results) if r is None]
        assert dnr and 0 < min(dnr) and max(dnr) < len(grid) - 1
        for config, result in zip(grid, results):
            if result is not None:
                assert len(result.samples) == config.runs
                assert result.n_threads == config.n_threads

    def test_dnr_family_bit_identical(self):
        """The D1's FT DNR must flow through the planner unchanged."""
        grid = [
            ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B"),
            ExperimentConfig(machine="sg2044", kernel="ft", npb_class="B"),
        ]
        planned = SweepEngine(runner=ExperimentRunner())
        p = _assert_differential(grid)
        assert p[0] is None and p[1] is not None
        # And the DNR message itself is the model's, verbatim.
        with pytest.raises(DNRError) as a:
            planned.run(grid[0])
        with pytest.raises(DNRError) as b:
            scalar_run(ExperimentRunner(), grid[0])
        assert str(a.value) == str(b.value)

    def test_subclassed_runner_is_planned(self):
        """A runner subclass takes the one planner route, unchanged."""

        class Custom(ExperimentRunner):
            pass

        grid = expand_grid(("sg2044",), ("is",), classes="C", thread_counts=(1, 2))
        outcome = plan_groups(Custom(), [grid])
        assert outcome == plan_groups(ExperimentRunner(), [grid])
        assert outcome == [_oracle(ExperimentRunner(), grid)]

    def test_planner_matches_engine_error_on_invalid_threads(self):
        bad = ExperimentConfig(machine="sg2042", kernel="is", n_threads=128)
        with pytest.raises(ValueError) as planned_err:
            SweepEngine(runner=ExperimentRunner()).run_many([bad])
        with pytest.raises(ValueError) as runner_err:
            ExperimentRunner().run(bad)
        with pytest.raises(ValueError) as machine_err:
            get_machine("sg2042").validate_thread_count(128)
        assert str(planned_err.value) == str(runner_err.value) == str(machine_err.value)

    def test_invalid_thread_count_commits_nothing(self, tmp_path):
        """A valid family ahead of an invalid thread count is not committed:
        the planner validates the whole batch before evaluating any row."""
        grid = expand_grid("sg2042", "is", classes="C", thread_counts=(1, 2))
        grid.append(ExperimentConfig(machine="sg2042", kernel="mg", n_threads=128))
        engine = SweepEngine(runner=ExperimentRunner(), store=ResultStore(tmp_path))
        rec = obs.install()
        try:
            with pytest.raises(ValueError, match="cannot run 128 threads"):
                engine.run_many(grid)
        finally:
            obs.disable()
        assert engine._results == {}
        assert engine._inflight == {}
        assert engine.store.stats()["entries"] == 0
        counters = rec.counters_snapshot()
        assert "model.batch_calls" not in counters
        assert "sweep.groups_executed" not in counters
        (run_many,) = rec.span_tree()["children"]
        # No group was committed and nothing was published.
        assert [node["name"] for node in run_many["children"]] == ["store.preload"]
        assert rec.quiescent()


def _count_evaluations(monkeypatch) -> list[int]:
    """Record the row count of every block the planner evaluates."""
    calls: list[int] = []
    evaluate = plan_module._eval_block

    def counted(block):
        calls.append(len(block["n"]))
        return evaluate(block)

    monkeypatch.setattr(plan_module, "_eval_block", counted)
    return calls


def _all_machine_batch() -> list[ExperimentConfig]:
    """Every catalogue machine in one batch, with the layouts whose
    machine columns differ: a DNR family, the EPYC's NUMA boundary, an
    L3-less board and cluster-L2 chips across a cluster boundary."""
    grid = expand_grid("allwinner-d1", "ft", classes="C", thread_counts=1)  # DNR
    grid += expand_grid("allwinner-d1", "is", classes="S", thread_counts=1)
    # 16 cores per NUMA region: MG/FT/CG are NUMA-sensitive, EP is not.
    grid += expand_grid(
        "epyc7742", ("mg", "ep", "ft", "cg"), classes="A", thread_counts=(8, 16, 17, 32, 64)
    )
    grid += expand_grid("visionfive2", ("is", "cg", "mg"), classes="S", thread_counts=(1, 2, 3, 4))
    # 4-core cluster L2s: 3/4 threads fill one cluster, 5 and 8 spill into more.
    grid += expand_grid(("sg2044", "sg2042"), ("cg", "is"), classes="B", thread_counts=(3, 4, 5, 8, 9))
    grid += expand_grid(
        ("bananapi-f3", "milkv-jupiter"), ("cg", "is"), classes="W", thread_counts=(3, 4, 5, 8)
    )
    grid += expand_grid(
        ("skylake8170", "thunderx2", "visionfive1", "hifive-u740"),
        ("bt", "sp"),
        classes="S",
        thread_counts=(1, 2),
    )
    return grid


class TestOnePassPerBatch:
    def test_all_machine_batch_is_one_evaluation(self, monkeypatch):
        calls = _count_evaluations(monkeypatch)
        groups = [
            [ExperimentConfig(machine=name, kernel="mg", npb_class="S")]
            for name in machine_names()
        ]
        assert len(groups) == 11
        outcomes = plan_groups(ExperimentRunner(), groups)
        assert len(outcomes) == 11
        # One block: 11 request rows plus the 11 MG anchors.
        assert calls == [22]

    def test_all_machine_differential(self, monkeypatch):
        grid = _all_machine_batch()
        assert {c.machine for c in grid} == set(machine_names())
        assert signature_for("ep", "A").dram_bytes_per_op <= 0.3
        assert signature_for("mg", "A").dram_bytes_per_op > 0.3
        assert get_machine("epyc7742").topology.cores_per_numa == 16
        assert get_machine("visionfive2").cache(3) is None
        assert get_machine("sg2044").topology.cores_per_cluster == 4
        calls = _count_evaluations(monkeypatch)
        results = _assert_differential(grid)
        assert len(calls) == 1
        assert results[0] is None and results[1] is not None  # D1: FT C is DNR


class GatedEngine(SweepEngine):
    """Blocks every family commit on a gate and logs the families' keys."""

    def __init__(self, gate):
        super().__init__(ExperimentRunner())
        self.gate = gate
        self.calls = []
        self.calls_lock = threading.Lock()

    def _commit_outcome(self, keys, outcome):
        with self.calls_lock:
            self.calls.append(list(keys))
        assert self.gate.wait(timeout=30)
        super()._commit_outcome(keys, outcome)


def test_pcg64_states_equal_numpy_seeding():
    """Bulk seeding installs exactly ``default_rng(seed)``'s PCG64 state."""
    rng = random.Random(20251017)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    seeds += [rng.getrandbits(64) for _ in range(1000)]
    seeds += [rng.getrandbits(rng.randint(1, 63)) for _ in range(200)]
    words = _pcg64_words(np.asarray(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4)
    bit_generator = np.random.PCG64(0)
    target = _state_address(bit_generator)
    for seed, row in zip(seeds, words):
        ctypes.memmove(target, row.ctypes.data, 32)
        assert bit_generator.state == np.random.default_rng(seed).bit_generator.state, seed


class TestSubgridContainment:
    def test_gated_batch_claims_share_one_event(self):
        """Every key a batch claims maps to that batch's one event."""
        gate = threading.Event()
        engine = GatedEngine(gate)
        grid = expand_grid(
            ("sg2044",), ("is", "mg"), classes="C", thread_counts=(1, 2, 4, 8)
        )
        thread = threading.Thread(target=engine.run_many, args=(grid,))
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while not engine.calls and time.monotonic() < deadline:
                time.sleep(0.001)
            assert engine.calls, "batch never started committing"
            with engine._lock:
                table = dict(engine._inflight)
        finally:
            gate.set()
            thread.join(timeout=30)
        assert set(table) == {engine.cache_key(c) for c in grid}
        assert len({id(event) for event in table.values()}) == 1
        assert not thread.is_alive()
        assert next(iter(table.values())).is_set()
        assert engine._inflight == {}

    def test_contained_requests_never_double_execute(self):
        """8 threads riding one in-flight super-sweep: zero re-execution."""
        gate = threading.Event()
        engine = GatedEngine(gate)
        grid = expand_grid(
            ("sg2044",), ("is", "mg"), classes="C", thread_counts=(1, 2, 4, 8)
        )
        rec = obs.install()
        try:
            super_results: list = []
            super_thread = threading.Thread(
                target=lambda: super_results.extend(engine.run_many(grid))
            )
            super_thread.start()
            # Wait until the super-sweep has claimed its keys and is
            # blocked inside its first family's commit.
            deadline = time.monotonic() + 30
            while not engine.calls and time.monotonic() < deadline:
                time.sleep(0.001)
            assert engine.calls, "super-sweep never started committing"

            subgrids = [grid[i % len(grid) :] for i in range(8)]
            sub_results: dict[int, list] = {}

            def rider(i):
                sub_results[i] = engine.run_many(subgrids[i])

            riders = [
                threading.Thread(target=rider, args=(i,)) for i in range(8)
            ]
            for t in riders:
                t.start()
            # Every rider's key-set is contained in the super-sweep, so all
            # 8 must take the containment path before anything executes.
            while (
                rec.counters_snapshot().get("sweep.containment_waits", 0) < 8
                and time.monotonic() < deadline
            ):
                time.sleep(0.001)
        finally:
            gate.set()
        super_thread.join(timeout=30)
        for t in riders:
            t.join(timeout=30)
        assert not super_thread.is_alive()
        assert rec.counters_snapshot().get("sweep.containment_waits", 0) == 8
        # Each family ran exactly once: the riders recomputed nothing.
        assert len(engine.calls) == 2
        assert sorted(len(c) for c in engine.calls) == [4, 4]
        for i, sub in enumerate(subgrids):
            assert sub_results[i] == super_results[len(grid) - len(sub) :]
        # The single-flight table drained completely.
        assert engine._inflight == {}
        obs.disable()
