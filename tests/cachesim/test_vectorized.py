"""Engine equivalence: the vectorized reuse-distance simulator against
the dict-based oracle, on random traces/geometries and the kernel set."""

import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cachesim.cache import SetAssociativeCache
from repro.cachesim.hierarchy import (
    TRACE_ENGINES,
    CacheHierarchy,
    xeon8170_hierarchy,
)
from repro.cachesim.stats import profile_kernel
from repro.cachesim.trace import KERNEL_TRACES, build_trace
from repro.cachesim.vectorized import bypass_hits, lru_hits


def _dict_lru(lines, streaming, n_sets, ways):
    """Straight-line reference: per-set insertion-ordered dicts."""
    sets = [dict() for _ in range(n_sets)]
    out = np.zeros(len(lines), bool)
    for i, ln in enumerate(lines.tolist()):
        e = sets[ln % n_sets]
        if ln in e:
            del e[ln]
            e[ln] = None
            out[i] = True
        elif not streaming[i]:
            if len(e) >= ways:
                e.pop(next(iter(e)))
            e[ln] = None
    return out


def _run_both(hier_factory, addresses, mask):
    """Run both engines on fresh hierarchies; return everything observable."""
    out = []
    for engine in ("exact", "vectorized"):
        hier = hier_factory()
        rec = obs.install()
        try:
            result, levels = hier.run_trace(
                addresses, streaming_mask=mask, engine=engine
            )
        finally:
            obs.disable()
        stats = [
            (c.stats.hits, c.stats.misses)
            for c in (hier.l1, hier.l2, hier.l3)
        ]
        out.append((result, levels, stats, rec.counters_snapshot()))
    return out


class TestUnitEngines:
    @given(
        lines=st.lists(st.integers(0, 70), min_size=1, max_size=500),
        n_sets=st.sampled_from([1, 2, 3, 4, 8]),
        ways=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_lru_hits_matches_dict(self, lines, n_sets, ways):
        arr = np.asarray(lines, dtype=np.int64)
        got = lru_hits(arr, n_sets, ways)
        want = _dict_lru(arr, np.zeros(len(arr), bool), n_sets, ways)
        assert np.array_equal(got, want)

    @given(
        lines=st.lists(st.integers(0, 70), min_size=1, max_size=400),
        n_sets=st.sampled_from([1, 2, 3, 4, 8]),
        ways=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bypass_hits_matches_dict(self, lines, n_sets, ways, data):
        arr = np.asarray(lines, dtype=np.int64)
        streaming = np.asarray(
            data.draw(
                st.lists(
                    st.booleans(), min_size=len(arr), max_size=len(arr)
                )
            ),
            dtype=bool,
        )
        got = bypass_hits(arr, streaming, n_sets, ways)
        want = _dict_lru(arr, streaming, n_sets, ways)
        assert np.array_equal(got, want)


class TestHierarchyDifferential:
    @given(
        addrs=st.lists(st.integers(0, 1 << 13), min_size=1, max_size=400),
        l1_ways=st.sampled_from([1, 2, 4]),
        l1_sets=st.sampled_from([1, 2, 4]),
        line_bytes=st.sampled_from([32, 48, 64]),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_engines_identical_on_random_traces(
        self, addrs, l1_ways, l1_sets, line_bytes, data
    ):
        streaming = np.asarray(
            data.draw(
                st.lists(
                    st.booleans(), min_size=len(addrs), max_size=len(addrs)
                )
            ),
            dtype=bool,
        )

        def factory():
            l1 = SetAssociativeCache(
                l1_sets * l1_ways * line_bytes, line_bytes, l1_ways
            )
            l2 = SetAssociativeCache(4 * 8 * line_bytes, line_bytes, 8)
            l3 = SetAssociativeCache(3 * 6 * line_bytes, line_bytes, 6)
            return CacheHierarchy(l1, l2, l3)

        arr = np.asarray(addrs, dtype=np.int64)
        (r1, lv1, st1, c1), (r2, lv2, st2, c2) = _run_both(
            factory, arr, streaming
        )
        assert r1 == r2
        assert np.array_equal(lv1, lv2)
        assert st1 == st2
        assert c1 == c2

    def test_all_streaming_mask(self):
        arr = np.arange(0, 64 * 300, 64, dtype=np.int64) % (64 * 40)
        mask = np.ones(len(arr), bool)
        (r1, lv1, st1, c1), (r2, lv2, st2, c2) = _run_both(
            xeon8170_hierarchy, arr, mask
        )
        assert r1 == r2 and np.array_equal(lv1, lv2) and st1 == st2

    def test_empty_trace(self):
        result, levels = xeon8170_hierarchy().run_trace(
            np.zeros(0, np.int64), engine="vectorized"
        )
        assert result.total == 0 and len(levels) == 0


class TestKernelParity:
    @pytest.mark.parametrize("kernel", sorted(KERNEL_TRACES))
    @pytest.mark.parametrize("masked", [False, True])
    def test_kernel_trace_bit_identical(self, kernel, masked):
        trace, prefetchable, _spec = build_trace(kernel, 120_000, seed=42)
        mask = prefetchable if masked else None
        (r1, lv1, st1, c1), (r2, lv2, st2, c2) = _run_both(
            xeon8170_hierarchy, trace, mask
        )
        assert r1 == r2
        assert np.array_equal(lv1, lv2)
        assert st1 == st2
        assert c1 == c2


class TestEngineContract:
    def test_registry_holds_both_engines(self):
        assert set(TRACE_ENGINES) == {"exact", "vectorized"}
        for engine in TRACE_ENGINES.values():
            # A module-level function: no lambda, method or closure.
            assert isinstance(engine, types.FunctionType)
            assert engine.__qualname__ == engine.__name__
            assert getattr(sys.modules[engine.__module__], engine.__name__) is engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown trace engine"):
            xeon8170_hierarchy().run_trace(
                np.zeros(4, np.int64), engine="nope"
            )

    def test_vectorized_requires_cold_hierarchy(self):
        hier = xeon8170_hierarchy()
        hier.run_trace(np.array([0, 64, 128], dtype=np.int64))
        with pytest.raises(ValueError, match="cold"):
            hier.run_trace(np.array([0], dtype=np.int64), engine="vectorized")

    def test_exact_continues_from_warm_state(self):
        hier = xeon8170_hierarchy()
        hier.run_trace(np.array([0], dtype=np.int64))
        result, _ = hier.run_trace(np.array([0], dtype=np.int64))
        assert result.l1_hits == 1  # still resident from the first run


class TestWindowedBandwidth:
    @staticmethod
    def _bound_windows_loop(levels, cycles, n_windows):
        """The pre-vectorization per-window reference loop."""
        edges = np.linspace(0, len(levels), n_windows + 1, dtype=int)
        bound = 0
        for w in range(n_windows):
            lo, hi = edges[w], edges[w + 1]
            if hi <= lo:
                continue
            dram_lines = int((levels[lo:hi] == 4).sum())
            seg_seconds = float(cycles[lo:hi].sum()) / 2.1e9
            if dram_lines * 64 * 26 / seg_seconds >= 0.5 * 90e9:
                bound += 1
        return bound

    @pytest.mark.parametrize("kernel", sorted(KERNEL_TRACES))
    def test_vectorized_windows_match_loop(self, kernel):
        n_windows = 50
        profile = profile_kernel(kernel, n_accesses=20_000, seed=7)
        # Rebuild the same per-access data the profiler used.
        trace, prefetchable, spec = build_trace(kernel, 20_000, seed=7)
        _res, levels_full = xeon8170_hierarchy().run_trace(
            trace, streaming_mask=prefetchable, engine="vectorized"
        )
        cut = int(len(levels_full) * 0.3)
        levels = levels_full[cut:]
        demand = ~prefetchable[cut:]
        lat = (4, 14, 60, 200)
        cycles = np.full(len(levels), spec.cycles_per_access)
        cycles += (levels == 1) * lat[0]
        for lvl, latency in ((2, lat[1]), (3, lat[2]), (4, lat[3])):
            cycles += ((levels == lvl) & demand) * latency * spec.stall_overlap
        want = self._bound_windows_loop(levels, cycles, n_windows)
        assert profile.ddr_bandwidth_bound == want / n_windows

    def test_empty_windows_never_bound(self):
        # More windows than post-warmup accesses: the linspace edges
        # repeat, and the repeated (empty) windows must not count.
        profile = profile_kernel("ep", n_accesses=1000, n_windows=5000)
        assert 0.0 <= profile.ddr_bandwidth_bound < 1.0


class TestProfileCache:
    def test_repeat_profile_reemits_identical_counters(self):
        from repro.cachesim.stats import clear_profile_cache

        clear_profile_cache()
        snaps = []
        for _ in range(2):
            rec = obs.install()
            try:
                profile = profile_kernel("cg", n_accesses=6000, seed=11)
            finally:
                obs.disable()
            snaps.append((profile, rec.counters_snapshot()))
        (p1, c1), (p2, c2) = snaps
        assert p1 == p2
        assert c1 == c2 and c1["cachesim.accesses"] == 6000
        clear_profile_cache()

    def test_clear_caches_covers_profiles(self):
        from repro.cachesim import stats
        from repro.core.sweep import clear_caches

        profile_kernel("mg", n_accesses=6000, seed=11)
        assert stats._profile_cache
        clear_caches()
        assert not stats._profile_cache
