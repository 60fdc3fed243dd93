"""Property suite: telemetry is a pure function of the work performed.

For random experiment grids (seeded, replayable -- see ``strategies``),
the counters and span tree a sweep produces must be byte-identical

* across the planned megagrid pass and the per-family path
  (``planner=False``),
* across cold and warm-cache replays (warm runs are all hits),

and span trees must always be well-nested (every entry exited, in
order).  Uses hypothesis when available, a fixed seed sweep otherwise.
"""

import json
import random
import threading

import pytest

from repro import obs
from repro.core.experiment import ExperimentRunner
from repro.core.sweep import SweepEngine
from repro.obs.export import report_dict

from .strategies import grid_fingerprint, random_grid

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def seeded(fn):
        return settings(max_examples=6, deadline=None, derandomize=True)(
            given(seed=st.integers(min_value=0, max_value=2**16))(fn)
        )

except ImportError:  # pragma: no cover - hypothesis is in the image

    def seeded(fn):
        return pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234, 65535])(fn)


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


def _session(grid, runner, planner=True):
    """Run ``grid`` cold then warm on a fresh engine; a report per phase."""
    engine = SweepEngine(runner, planner=planner)
    reports = []
    results = []
    for _ in ("cold", "warm"):
        rec = obs.install(None)
        try:
            results.append(engine.run_many(grid, on_dnr="none"))
        finally:
            obs.disable()
        assert rec.quiescent()
        reports.append(report_dict(rec, include_timings=False))
    return engine, reports, results


def _bytes(report) -> bytes:
    return json.dumps(report, sort_keys=False).encode()


@pytest.fixture(scope="module")
def shared_runner():
    """One runner (and calibrated model) shared by every engine here."""
    return ExperimentRunner()


class TestCounterIdentity:
    @seeded
    def test_planned_per_family_and_warm_identical(self, seed, shared_runner):
        grid = random_grid(seed)
        _, planned, res_planned = _session(grid, shared_runner)
        _, per_family, res_family = _session(grid, shared_runner, planner=False)
        # Byte-identical reports, phase by phase, across execution modes.
        assert _bytes(planned[0]) == _bytes(per_family[0])
        assert _bytes(planned[1]) == _bytes(per_family[1])
        # And identical results, slot by slot.
        assert res_planned == res_family

    @seeded
    def test_counter_conservation(self, seed, shared_runner):
        from .strategies import DNR_CONFIG

        grid = random_grid(seed)
        total, unique = grid_fingerprint(grid)
        n_dnr_slots = sum(1 for c in grid if c == DNR_CONFIG)
        unique_dnr = 1 if n_dnr_slots else 0
        engine, (cold, warm), _ = _session(grid, shared_runner)

        c = cold["counters"]
        assert c["sweep.configs_requested"] == total
        assert c["sweep.cache_hits"] + c["sweep.cache_misses"] == total
        assert c["sweep.cache_misses"] == unique
        # Executed + DNR'd covers every unique cold config exactly once.
        assert c.get("sweep.configs_executed", 0) == unique - unique_dnr
        assert c.get("sweep.dnr_raises", 0) == unique_dnr
        # The return path counts DNR *slots* (duplicates included).
        assert c["sweep.dnr_configs"] == n_dnr_slots

        w = warm["counters"]
        assert w["sweep.configs_requested"] == total
        assert w["sweep.cache_hits"] == total
        assert w["sweep.cache_misses"] == 0
        assert "sweep.configs_executed" not in w
        # Cached DNR values still count on every replay's return path.
        assert w["sweep.dnr_configs"] == n_dnr_slots
        assert engine.dnr_configs == 2 * n_dnr_slots

    @seeded
    def test_span_tree_shape_is_mode_independent(self, seed, shared_runner):
        grid = random_grid(seed)
        _, (cold_planned, _), _ = _session(grid, shared_runner)
        _, (cold_family, _), _ = _session(grid, shared_runner, planner=False)
        assert cold_planned["spans"] == cold_family["spans"]
        # Every group span hangs under run_many, which hangs under session.
        (run_many,) = cold_planned["spans"]["children"]
        assert run_many["name"] == "run_many"
        assert all(c["name"].startswith("group[") for c in run_many["children"])


class TestWellNestedSpans:
    @seeded
    def test_random_span_walks_stay_nested(self, seed):
        rec = obs.install()
        rng = random.Random(seed)
        names = [f"s{i}" for i in range(5)]

        def walk(depth):
            for _ in range(rng.randint(0, 3)):
                with obs.span(rng.choice(names)):
                    if depth < 4:
                        walk(depth + 1)

        try:
            walk(0)
        finally:
            obs.disable()
        assert rec.quiescent()

    @seeded
    def test_threaded_walks_stay_nested_per_thread(self, seed):
        rec = obs.install()
        errors = []

        def walk(worker_seed):
            rng = random.Random(worker_seed)
            try:
                node = obs.open_span(f"worker{worker_seed % 4}")
                with obs.activate(node):
                    for _ in range(rng.randint(1, 8)):
                        with obs.span(rng.choice(("a", "b"))):
                            obs.incr("ticks")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=walk, args=(seed * 31 + i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        obs.disable()
        assert errors == []
        assert rec.quiescent()
        # All eight workers' spans landed under the session root.
        assert sum(c["count"] for c in rec.span_tree()["children"]) == 8
