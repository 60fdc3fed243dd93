"""The analytic performance model: invariants and composition."""

import copy

import numpy as np
import pytest

from repro.compilers.gcc import get_compiler
from repro.core.perfmodel import (
    DNRError,
    PerformanceModel,
    _BlockBuilder,
    _communication_bytes_rows,
    _effective_threads_rows,
    _family_block,
    _spill_fraction,
)
from repro.compilers.gcc import default_compiler_for
from repro.machines.catalog import all_machines, get_machine
from repro.machines.cpu import CacheSharing
from repro.machines.machine import (
    barrier_cost_rows,
    cache_bytes_per_thread_rows,
    parallel_efficiency_rows,
    spans_numa_rows,
)
from repro.npb.signatures import signature_for

GCC15 = get_compiler("gcc-15.2")


@pytest.fixture(scope="module")
def pm():
    return PerformanceModel()


@pytest.fixture(scope="module")
def raw_pm():
    return PerformanceModel(calibrate=False)


class TestBasicPredictions:
    def test_positive_time_and_rate(self, pm):
        p = pm.predict(get_machine("sg2044"), signature_for("ep", "C"), GCC15, 1)
        assert p.time_s > 0
        assert p.mops > 0

    def test_breakdown_composition(self, pm):
        p = pm.predict(get_machine("sg2044"), signature_for("mg", "C"), GCC15, 8)
        assert p.time_s == pytest.approx(
            max(p.t_compute, p.t_stream) + p.t_latency + p.t_sync, rel=1e-9
        )

    def test_more_threads_never_slower(self, pm):
        sig = signature_for("ep", "C")
        m = get_machine("sg2044")
        times = [pm.predict(m, sig, GCC15, n).time_s for n in (1, 2, 4, 8, 16, 32, 64)]
        assert all(t2 <= t1 for t1, t2 in zip(times, times[1:]))

    def test_dominant_term_labels(self, pm):
        ep = pm.predict(get_machine("sg2044"), signature_for("ep", "C"), GCC15, 1)
        assert ep.dominant_term == "compute"
        mg64 = pm.predict(get_machine("sg2044"), signature_for("mg", "C"), GCC15, 64)
        assert mg64.dominant_term == "stream"

    def test_thread_count_validated(self, pm):
        with pytest.raises(ValueError):
            pm.predict(get_machine("skylake8170"), signature_for("ep", "C"), GCC15, 64)


class TestDNR:
    def test_ft_class_b_dnr_on_allwinner_d1(self, pm):
        # The paper's Table 2 "DNR": 1 GB of DRAM cannot hold FT class B.
        with pytest.raises(DNRError, match="GiB"):
            pm.predict(
                get_machine("allwinner-d1"), signature_for("ft", "B"), GCC15, 1
            )

    def test_small_classes_fit_everywhere(self, pm):
        p = pm.predict(get_machine("allwinner-d1"), signature_for("ft", "S"), GCC15, 1)
        assert p.mops > 0


class TestSpillFraction:
    def test_fits_means_trickle(self):
        assert _spill_fraction(1e6, np.asarray(2e6)) == pytest.approx(0.02)

    def test_overflow_means_full_spill(self):
        assert _spill_fraction(1e9, np.asarray(1e6)) == 1.0

    def test_sharp_lru_knee(self):
        # 70% coverage of a sweeping working set barely helps.
        at_half, at_99 = _spill_fraction(1e6, np.asarray([0.5e6, 0.99e6]))
        assert at_half == 1.0
        assert at_99 < 0.1

    def test_monotone_in_cache_size(self):
        spills = _spill_fraction(1e6, np.asarray([1e5, 5e5, 7e5, 9e5, 1e6, 2e6]))
        assert all(s2 <= s1 for s1, s2 in zip(spills, spills[1:]))

    @pytest.mark.parametrize("working_set", [0.0, -1.0, np.asarray([1e6, 0.0])])
    def test_non_positive_working_set_rejected(self, working_set):
        # Validated once, where the block is built (one family per value).
        builder = _BlockBuilder()
        for ws in np.atleast_1d(working_set).tolist():
            sig = copy.copy(signature_for("mg", "C"))
            object.__setattr__(sig, "working_set_bytes", ws)
            builder.add(get_machine("sg2044"), sig, GCC15, True, (1, 2))
        with pytest.raises(ValueError, match="working_set"):
            builder.build()


class TestVectorisationInModel:
    def test_cg_vec_slower_on_sg2044(self, pm):
        m = get_machine("sg2044")
        sig = signature_for("cg", "C")
        vec = pm.predict(m, sig, GCC15, 1, vectorise=True)
        novec = pm.predict(m, sig, GCC15, 1, vectorise=False)
        assert vec.time_s > 1.8 * novec.time_s  # Section 6 pathology

    def test_mg_vec_faster_on_sg2044(self, pm):
        m = get_machine("sg2044")
        sig = signature_for("mg", "C")
        vec = pm.predict(m, sig, GCC15, 1, vectorise=True)
        novec = pm.predict(m, sig, GCC15, 1, vectorise=False)
        assert vec.time_s < novec.time_s

    def test_gcc12_emits_scalar_with_note(self, pm):
        p = pm.predict(
            get_machine("sg2044"),
            signature_for("mg", "C"),
            get_compiler("gcc-12.3.1"),
            1,
            vectorise=True,
        )
        assert not p.vectorised
        assert any("cannot target" in n for n in p.notes)


class TestCalibration:
    def test_uncalibrated_model_differs(self, pm, raw_pm):
        m = get_machine("sg2044")
        sig = signature_for("cg", "C")
        cal = pm.predict(m, sig, GCC15, 1, vectorise=False)
        raw = raw_pm.predict(m, sig, GCC15, 1, vectorise=False)
        assert cal.calibration_factor != 1.0
        assert raw.calibration_factor == 1.0
        assert cal.time_s != raw.time_s

    def test_factors_cached(self, pm):
        m = get_machine("sg2044")
        sig = signature_for("ep", "C")
        pm.predict(m, sig, GCC15, 1)
        assert ("sg2044", "ep") in pm._kappa_cache


class TestRowEvaluator:
    def test_single_thread_baselines(self):
        sig = signature_for("mg", "C")
        m = get_machine("sg2044")
        g, _, _ = _family_block(m, sig, GCC15, True, (1,))
        ns = g["n"]
        nsf = ns.astype(np.float64)
        spans_numa = np.zeros(ns.shape, dtype=bool)
        assert _effective_threads_rows(g, ns, nsf, spans_numa)[0] == 1.0
        assert _communication_bytes_rows(g, ns, nsf, spans_numa)[0] == 0.0


def _cache_bytes_per_level(machine, n):
    """The per-sharing-kind capacity sum the row formula replaces."""
    total = 0.0
    for cache in machine.caches:
        if cache.sharing is CacheSharing.CLUSTER:
            total += cache.size_bytes / min(machine.topology.cores_per_cluster, n)
        elif cache.sharing is CacheSharing.CHIP:
            total += cache.size_bytes / n
        else:
            total += cache.size_bytes
    return total


class TestMachineColumns:
    def test_scalar_views_equal_block_rows(self):
        """Every (machine, n) point of one all-machine block: the block's
        machine columns through the row formulas give exactly the
        ``Machine`` scalar views, both NUMA settings, and the barrier cost
        of the machine's own parameters."""
        builder = _BlockBuilder()
        points = []
        for machine in all_machines():
            ns = list(range(1, machine.n_cores + 1))
            compiler = get_compiler(default_compiler_for(machine.name))
            builder.add(machine, signature_for("mg", "S"), compiler, True, ns)
            points += [(machine, n) for n in ns]
        assert len(points) == 277
        g = builder.build()
        ns = g["n"]
        spans = spans_numa_rows(ns, g["numa_regions"], g["cores_per_numa"])
        cache = cache_bytes_per_thread_rows(ns, g["level_bytes"], g["level_sharers"])
        barrier = barrier_cost_rows(ns, g["barrier_base_ns"], g["barrier_log_coeff_ns"])
        efficiency = {
            sensitive: parallel_efficiency_rows(
                ns, g["os_noise_coeff"], g["numa_penalty"], sensitive & spans
            ).tolist()
            for sensitive in (True, False)
        }
        for i, (machine, n) in enumerate(points):
            assert machine.effective_cache_bytes_per_thread(n) == cache[i]
            assert cache[i] == _cache_bytes_per_level(machine, n)
            assert barrier[i] == barrier_cost_rows(
                np.asarray([n]), machine.barrier_base_ns, machine.barrier_log_coeff_ns
            )[0]
            for sensitive in (True, False):
                assert machine.parallel_efficiency(n, sensitive) == efficiency[sensitive][i]

    def test_views_keep_their_checks(self):
        m = get_machine("sg2044")
        with pytest.raises(ValueError):
            m.effective_cache_bytes_per_thread(65)
        with pytest.raises(ValueError):
            m.parallel_efficiency(0)
