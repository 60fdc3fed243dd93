"""Failure semantics of sweep execution.

The headline regression: a group that raised used to trip a fallback
that re-executed *every* group -- double-counting
``sweep.groups_executed``/``configs_executed`` and re-running work whose
results were already stored.  These tests pin the contract: families are
committed in order, a failing family propagates exactly once, the
families before it stay cached, the ones after it are never committed,
and the failed family's claims are released so a later call re-claims
it.  The failure is injected at the engine's per-family commit, after
the production planner pass.
"""

import threading

import pytest

from repro import obs
from repro.core.sweep import SweepEngine, expand_grid

KERNELS = ("is", "ep", "mg", "cg")


def _grid():
    # 4 families x 2 thread counts = 8 configs on one machine.
    return expand_grid(("sg2044",), KERNELS, thread_counts=(1, 4))


class PoisonEngine(SweepEngine):
    """Counts family commits; raises for one kernel until ``fixed``."""

    def __init__(self, poison_kernel=None, error=None) -> None:
        super().__init__()
        self.poison_kernel = poison_kernel
        self.error = error or RuntimeError("model blew up")
        self.fixed = False
        self.family_calls: dict[str, int] = {}
        self._count_lock = threading.Lock()

    def _commit_outcome(self, keys, outcome):
        kernel = keys[0][4]  # compute_cache_key: (seed, noise, calibrate, machine, kernel, ...)
        with self._count_lock:
            self.family_calls[kernel] = self.family_calls.get(kernel, 0) + 1
        if kernel == self.poison_kernel and not self.fixed:
            raise self.error
        super()._commit_outcome(keys, outcome)


class TestDoubleExecutionRegression:
    """An in-group failure must not re-run the sweep."""

    def test_group_failure_does_not_serially_reexecute(self):
        engine = PoisonEngine(poison_kernel="mg")  # third family in order
        rec = obs.install()
        with pytest.raises(RuntimeError, match="model blew up"):
            engine.run_many(_grid())
        obs.disable()

        # The families before the poisoned one committed once, the
        # poisoned one raised once, and the one after it never started.
        assert engine.family_calls == {"is": 1, "ep": 1, "mg": 1}
        counters = rec.counters_snapshot()
        assert counters["sweep.groups_executed"] == 2
        assert counters["sweep.configs_executed"] == 4
        assert engine._inflight == {}
        assert rec.quiescent()

    def test_survivor_results_are_cached_despite_the_failure(self):
        engine = PoisonEngine(poison_kernel="mg")
        grid = _grid()
        with pytest.raises(RuntimeError):
            engine.run_many(grid)
        survivors = [c for c in grid if c.kernel in ("is", "ep")]
        engine.run_many(survivors)  # pure cache hits: no new executions
        assert engine.family_calls == {"is": 1, "ep": 1, "mg": 1}

    def test_failed_family_is_reclaimable_after_a_fix(self):
        engine = PoisonEngine(poison_kernel="mg")
        grid = _grid()
        with pytest.raises(RuntimeError):
            engine.run_many(grid)
        engine.fixed = True
        results = engine.run_many(grid)
        assert all(r is not None for r in results)
        # Only mg (re-claimed) and cg (never committed) ran again; is/ep
        # stayed cached.
        assert engine.family_calls == {"is": 1, "ep": 1, "mg": 2, "cg": 1}
        assert engine._inflight == {}

    def test_serial_failure_abandons_unexecuted_group_spans(self):
        engine = PoisonEngine(poison_kernel="is")  # first family in order
        rec = obs.install()
        with pytest.raises(RuntimeError):
            engine.run_many(_grid())
        obs.disable()

        # Only the attempted group appears; the three groups whose spans
        # were opened but never committed are pruned from the tree.
        run_many = rec.span_tree()["children"]
        assert [n["name"] for n in run_many] == ["run_many"]
        groups = [n["name"] for n in run_many[0]["children"]]
        assert groups == ["group[is/C]"]
        assert rec.quiescent()
