"""The megagrid planner: bit-identity with the per-family path.

The planner's whole contract is *exactness*: results, DNR entries,
telemetry counters and the span tree must all be indistinguishable from
the per-family execution it replaces -- across random subgrids
(property-based) and for the subgrid-containment fast path in the
single-flight table.
"""

import random
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.calibration import anchor_for
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.perfmodel import PerformanceModel
from repro.core.plan import PlanNotApplicable, _pcg64_states, plan_groups
from repro.core.sweep import SweepEngine, expand_grid
from repro.machines.catalog import get_machine

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


def _assert_differential(grid, calibrate=True):
    """Planner engine vs per-family engine: everything bit-identical."""

    def runner():
        return ExperimentRunner(model=PerformanceModel(calibrate=calibrate))

    planned = SweepEngine(runner=runner(), planner=True)
    family = SweepEngine(runner=runner(), planner=False)
    p_results, p_counters, p_spans = _run_recorded(planned, grid)
    f_results, f_counters, f_spans = _run_recorded(family, grid)
    assert p_results == f_results
    assert p_counters == f_counters
    assert p_spans == f_spans
    return p_results


def _mixed_batch() -> list[ExperimentConfig]:
    """Families in an order the machine-major megagrid does not keep:
    different ``runs``, DNR families between live ones, and calibration
    anchors on several machines."""
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
        planned = SweepEngine(runner=ExperimentRunner(), planner=True)
        family = SweepEngine(runner=ExperimentRunner(), planner=False)
        p, _, _ = _run_recorded(planned, grid)
        f, _, _ = _run_recorded(family, grid)
        assert p == f
        assert p[0] is None and p[1] is not None
        # And the DNR message itself is the per-family one, verbatim.
        with pytest.raises(Exception) as a:
            planned.run(grid[0])
        with pytest.raises(Exception) as b:
            family.run(grid[0])
        assert str(a.value) == str(b.value)

    def test_subclassed_runner_rejected(self):
        class Custom(ExperimentRunner):
            pass

        grid = expand_grid(("sg2044",), ("is",), classes="C", thread_counts=(1, 2))
        groups = [grid]
        with pytest.raises(PlanNotApplicable):
            plan_groups(Custom(), groups)

    def test_planner_matches_engine_error_on_invalid_threads(self):
        bad = ExperimentConfig(machine="sg2042", kernel="is", n_threads=128)
        with pytest.raises(ValueError) as planned_err:
            SweepEngine(runner=ExperimentRunner(), planner=True).run_many([bad])
        with pytest.raises(ValueError) as family_err:
            SweepEngine(runner=ExperimentRunner(), planner=False).run_many([bad])
        assert str(planned_err.value) == str(family_err.value)


class GatedRunner(ExperimentRunner):
    """Blocks every family execution on a gate and logs the batches."""

    def __init__(self, gate, **kw):
        super().__init__(**kw)
        self.gate = gate
        self.calls = []
        self.calls_lock = threading.Lock()

    def run_many(self, configs):
        with self.calls_lock:
            self.calls.append(list(configs))
        assert self.gate.wait(timeout=30)
        return super().run_many(configs)


def test_pcg64_states_equal_numpy_seeding():
    """Bulk seeding installs exactly ``default_rng(seed)``'s PCG64 state."""
    rng = random.Random(20251017)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    seeds += [rng.getrandbits(64) for _ in range(1000)]
    seeds += [rng.getrandbits(rng.randint(1, 63)) for _ in range(200)]
    states = _pcg64_states(np.asarray(seeds, dtype=np.uint64))
    assert len(states) == len(seeds)
    for seed, state in zip(seeds, states):
        assert state == np.random.default_rng(seed).bit_generator.state, seed


class TestSubgridContainment:
    def test_gated_batch_claims_share_one_event(self):
        """Every key a batch claims maps to that batch's one event."""
        gate = threading.Event()
        runner = GatedRunner(gate)
        engine = SweepEngine(runner=runner)
        grid = expand_grid(
            ("sg2044",), ("is", "mg"), classes="C", thread_counts=(1, 2, 4, 8)
        )
        thread = threading.Thread(target=engine.run_many, args=(grid,))
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while not runner.calls and time.monotonic() < deadline:
                time.sleep(0.001)
            assert runner.calls, "batch never started executing"
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
        runner = GatedRunner(gate)  # subclass: forces the per-family path
        engine = SweepEngine(runner=runner, planner=True)
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
            # blocked inside its first family.
            deadline = time.monotonic() + 30
            while not runner.calls and time.monotonic() < deadline:
                time.sleep(0.001)
            assert runner.calls, "super-sweep never started executing"

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
        assert len(runner.calls) == 2
        assert sorted(len(c) for c in runner.calls) == [4, 4]
        for i, sub in enumerate(subgrids):
            assert sub_results[i] == super_results[len(grid) - len(sub) :]
        # The single-flight table drained completely.
        assert engine._inflight == {}
        obs.disable()
