"""Property suite: telemetry is a pure function of the work performed.

For random experiment grids (seeded, replayable -- see ``strategies``),
the counters and span tree a sweep produces must be byte-identical

* across independent sessions on fresh engines, whose results equal the
  one-config-at-a-time oracle (``tests/oracle.py``) slot by slot,
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
from repro.core.perfmodel import DNRError
from repro.core.sweep import SweepEngine
from repro.obs.export import report_dict

from ..oracle import scalar_run
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


def _session(grid, runner):
    """Run ``grid`` cold then warm on a fresh engine; a report per phase."""
    engine = SweepEngine(runner)
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
    def test_planned_oracle_and_warm_identical(self, seed, shared_runner):
        grid = random_grid(seed)
        _, first, (cold, warm) = _session(grid, shared_runner)
        _, second, _ = _session(grid, shared_runner)
        # Byte-identical reports, phase by phase, across sessions.
        assert _bytes(first[0]) == _bytes(second[0])
        assert _bytes(first[1]) == _bytes(second[1])
        # Results equal the oracle's slot by slot, cold and warm.
        expected = []
        for config in grid:
            try:
                expected.append(scalar_run(shared_runner, config))
            except DNRError:
                expected.append(None)
        assert cold == expected
        assert warm == expected

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
    def test_span_tree_shape_is_session_independent(self, seed, shared_runner):
        grid = random_grid(seed)
        _, (cold_first, _), _ = _session(grid, shared_runner)
        _, (cold_second, _), _ = _session(grid, shared_runner)
        assert cold_first["spans"] == cold_second["spans"]
        # Every group span hangs under run_many, which hangs under session:
        # one entry per thread-sweep family, merged by name.
        (run_many,) = cold_first["spans"]["children"]
        assert run_many["name"] == "run_many"
        assert all(c["name"].startswith("group[") for c in run_many["children"])
        families = {c.family_key() for c in grid}
        assert sum(c["count"] for c in run_many["children"]) == len(families)


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
