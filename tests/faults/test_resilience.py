"""Failure semantics of serial sweep execution.

The headline regression: a group that raised used to trip a fallback
that re-executed *every* group -- double-counting
``sweep.groups_executed``/``configs_executed`` and re-running work whose
results were already stored.  These tests pin the contract: families run
in order, a failing family propagates exactly once, the families before
it stay cached, the ones after it never start, and the failed family's
claims are released so a later call re-claims it.
"""

import threading

import pytest

from repro import obs
from repro.core.experiment import ExperimentRunner
from repro.core.sweep import SweepEngine, expand_grid

KERNELS = ("is", "ep", "mg", "cg")


def _grid():
    # 4 families x 2 thread counts = 8 configs on one machine.
    return expand_grid(("sg2044",), KERNELS, thread_counts=(1, 4))


class PoisonRunner(ExperimentRunner):
    """Counts family executions; raises for one kernel until ``fixed``."""

    def __init__(self, poison_kernel=None, error=None) -> None:
        super().__init__()
        self.poison_kernel = poison_kernel
        self.error = error or RuntimeError("model blew up")
        self.fixed = False
        self.family_calls: dict[str, int] = {}
        self._count_lock = threading.Lock()

    def run_many(self, configs):
        kernel = configs[0].kernel
        with self._count_lock:
            self.family_calls[kernel] = self.family_calls.get(kernel, 0) + 1
        if kernel == self.poison_kernel and not self.fixed:
            raise self.error
        return super().run_many(configs)


class TestDoubleExecutionRegression:
    """An in-group failure must not re-run the sweep."""

    def test_group_failure_does_not_serially_reexecute(self):
        runner = PoisonRunner(poison_kernel="mg")  # third family in order
        engine = SweepEngine(runner)
        rec = obs.install()
        with pytest.raises(RuntimeError, match="model blew up"):
            engine.run_many(_grid())
        obs.disable()

        # The families before the poisoned one ran once, the poisoned one
        # raised once, and the one after it never started.
        assert runner.family_calls == {"is": 1, "ep": 1, "mg": 1}
        counters = rec.counters_snapshot()
        assert counters["sweep.groups_executed"] == 2
        assert counters["sweep.configs_executed"] == 4
        assert engine._inflight == {}
        assert rec.quiescent()

    def test_survivor_results_are_cached_despite_the_failure(self):
        runner = PoisonRunner(poison_kernel="mg")
        engine = SweepEngine(runner)
        grid = _grid()
        with pytest.raises(RuntimeError):
            engine.run_many(grid)
        survivors = [c for c in grid if c.kernel in ("is", "ep")]
        engine.run_many(survivors)  # pure cache hits: no new executions
        assert runner.family_calls == {"is": 1, "ep": 1, "mg": 1}

    def test_failed_family_is_reclaimable_after_a_fix(self):
        runner = PoisonRunner(poison_kernel="mg")
        engine = SweepEngine(runner)
        grid = _grid()
        with pytest.raises(RuntimeError):
            engine.run_many(grid)
        runner.fixed = True
        results = engine.run_many(grid)
        assert all(r is not None for r in results)
        # Only mg (re-claimed) and cg (never started) ran; is/ep stayed cached.
        assert runner.family_calls == {"is": 1, "ep": 1, "mg": 2, "cg": 1}
        assert engine._inflight == {}

    def test_serial_failure_abandons_unexecuted_group_spans(self):
        runner = PoisonRunner(poison_kernel="is")  # first family in order
        engine = SweepEngine(runner)
        rec = obs.install()
        with pytest.raises(RuntimeError):
            engine.run_many(_grid())
        obs.disable()

        # Only the attempted group appears; the three groups whose spans
        # were opened but never executed are pruned from the tree.
        run_many = rec.span_tree()["children"]
        assert [n["name"] for n in run_many] == ["run_many"]
        groups = [n["name"] for n in run_many[0]["children"]]
        assert groups == ["group[is/C]"]
        assert rec.quiescent()
