"""The machine catalog: every paper CPU with its Table 5 parameters."""

import numpy as np
import pytest

from repro.machines import (
    PAPER_HPC_MACHINES,
    PAPER_RISCV_BOARDS,
    VectorStandard,
    all_machines,
    get_machine,
    machine_names,
)
from repro.machines.cpu import CacheSharing
from repro.machines.machine import barrier_cost_rows


class TestCatalogIntegrity:
    def test_eleven_machines(self):
        assert len(all_machines()) == 11

    def test_lookup_by_name(self):
        assert get_machine("sg2044").label == "Sophon SG2044"

    def test_unknown_machine_lists_known(self):
        with pytest.raises(KeyError, match="sg2044"):
            get_machine("sg9999")

    def test_paper_sets_are_in_catalog(self):
        names = set(machine_names())
        assert set(PAPER_HPC_MACHINES) <= names
        assert set(PAPER_RISCV_BOARDS) <= names


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


#: Table 5 anchors for the two parts the paper's conclusions hang on:
#: (cores, memory channels, clock in Hz, DRAM generation).
TABLE5_ANCHORS = {
    "sg2044": (64, 32, 2.6e9, "DDR5"),
    "sg2042": (64, 4, 2.0e9, "DDR4"),
}


class TestCatalogInvariants:
    def test_table5_anchors_are_in_catalog(self):
        assert set(TABLE5_ANCHORS) <= set(machine_names())

    @pytest.mark.parametrize("name", machine_names())
    def test_machine_is_physically_consistent(self, name):
        """Cache geometry, topology, memory and the Table 5 anchors, checked
        on the live catalog object (every violation listed at once)."""
        m = get_machine(name)
        bad = []
        sizes = [c.size_bytes for c in m.caches]
        levels = [c.level for c in m.caches]
        if levels != sorted(set(levels)) or sizes != sorted(sizes):
            bad.append(f"levels {levels} / sizes {sizes} do not ascend")
        for c in m.caches:
            # A power-of-two associativity indexes a power-of-two set
            # count; the 11-way Skylake-SP L3 is the one exception.
            if _is_pow2(c.associativity) and not _is_pow2(c.n_sets):
                bad.append(f"L{c.level} has {c.n_sets} sets")
            if c.level == 1 and not _is_pow2(c.size_bytes):
                bad.append(f"L1 of {c.size_bytes} B")
        topo = m.topology
        if topo.total_cores % topo.cores_per_cluster \
                or topo.total_cores % topo.numa_regions:
            bad.append(f"{topo} does not divide evenly")
        mem = m.memory
        if mem.capacity_bytes % 2**30:
            bad.append(f"{mem.capacity_bytes} B is not whole GiB")
        if mem.sustained_bw_gbs > mem.peak_bw_gbs:
            bad.append(
                f"sustained {mem.sustained_bw_gbs} GB/s exceeds "
                f"the {mem.peak_bw_gbs:.1f} GB/s peak"
            )
        if name in TABLE5_ANCHORS:
            got = (m.n_cores, mem.channels, m.clock_hz, mem.ddr.generation.value)
            if got != TABLE5_ANCHORS[name]:
                bad.append(f"{got} != Table 5 {TABLE5_ANCHORS[name]}")
        assert bad == []


class TestTable5Parameters:
    """Every row of the paper's Table 5, checked against the catalog."""

    @pytest.mark.parametrize(
        "name,clock_ghz,cores,vector",
        [
            ("epyc7742", 2.25, 64, VectorStandard.AVX2),
            ("skylake8170", 2.1, 26, VectorStandard.AVX512),
            ("thunderx2", 2.0, 32, VectorStandard.NEON),
            ("sg2042", 2.0, 64, VectorStandard.RVV_0_7_1),
            ("sg2044", 2.6, 64, VectorStandard.RVV_1_0),
        ],
    )
    def test_table5_row(self, name, clock_ghz, cores, vector):
        m = get_machine(name)
        assert m.clock_ghz == pytest.approx(clock_ghz)
        assert m.n_cores == cores
        assert m.core.vector.standard is vector


class TestSophonUpgrades:
    """The SG2042 -> SG2044 upgrade list from Section 2.1."""

    def test_memory_controllers_32_vs_4(self):
        assert get_machine("sg2044").memory.controllers == 32
        assert get_machine("sg2042").memory.controllers == 4

    def test_ddr5_vs_ddr4(self):
        assert get_machine("sg2044").memory.ddr.name == "DDR5-4266"
        assert get_machine("sg2042").memory.ddr.name == "DDR4-3200"

    def test_cluster_l2_doubled(self):
        l2_44 = get_machine("sg2044").cache(2)
        l2_42 = get_machine("sg2042").cache(2)
        assert l2_44.size_bytes == 2 * l2_42.size_bytes == 2 * 2**20

    def test_shared_64mb_l3_on_both(self):
        for name in ("sg2042", "sg2044"):
            l3 = get_machine(name).cache(3)
            assert l3.size_bytes == 64 * 2**20
            assert l3.sharing is CacheSharing.CHIP

    def test_both_are_4_core_clusters(self):
        for name in ("sg2042", "sg2044"):
            assert get_machine(name).topology.cores_per_cluster == 4

    def test_single_numa_region_on_sg2044(self):
        assert get_machine("sg2044").topology.numa_regions == 1

    def test_l1_is_64kb(self):
        assert get_machine("sg2044").cache(1).size_bytes == 64 * 1024


class TestOtherArchitectures:
    def test_epyc_has_four_numa_regions(self):
        assert get_machine("epyc7742").topology.numa_regions == 4

    def test_epyc_memory_channels(self):
        assert get_machine("epyc7742").memory.channels == 8

    def test_skylake_channels_and_controllers(self):
        m = get_machine("skylake8170")
        assert m.memory.controllers == 2
        assert m.memory.channels == 6

    def test_thunderx2_channels(self):
        m = get_machine("thunderx2")
        assert m.memory.controllers == 2
        assert m.memory.channels == 8

    def test_allwinner_d1_has_1gb(self):
        assert get_machine("allwinner-d1").memory.capacity_bytes == 2**30

    def test_spacemit_boards_rvv10_256bit(self):
        for name in ("bananapi-f3", "milkv-jupiter"):
            v = get_machine(name).core.vector
            assert v.standard is VectorStandard.RVV_1_0
            assert v.width_bits == 256

    def test_jupiter_clocks_higher_than_bpi(self):
        assert (
            get_machine("milkv-jupiter").clock_hz
            > get_machine("bananapi-f3").clock_hz
        )


class TestMachineBehaviour:
    def test_barrier_cost_grows_with_threads(self):
        m = get_machine("sg2044")
        one, two, full = barrier_cost_rows(
            np.array([1, 2, 64]), m.barrier_base_ns, m.barrier_log_coeff_ns
        )
        assert one == 0.0
        assert full > two > 0.0

    def test_parallel_efficiency_decreasing(self):
        m = get_machine("sg2042")
        assert m.parallel_efficiency(1) == 1.0
        assert m.parallel_efficiency(64) < m.parallel_efficiency(8) < 1.0

    def test_sg2042_noisier_than_sg2044(self):
        # The SG2042 loses ~17% of EP's scaling at 64 cores (Table 4).
        assert (
            get_machine("sg2042").parallel_efficiency(64)
            < get_machine("sg2044").parallel_efficiency(64)
        )

    def test_epyc_numa_penalty_beyond_16_threads(self):
        m = get_machine("epyc7742")
        assert m.parallel_efficiency(17) < m.parallel_efficiency(16) * 0.95

    def test_thread_validation(self):
        with pytest.raises(ValueError):
            get_machine("skylake8170").validate_thread_count(27)

    def test_effective_cache_decreases_per_thread(self):
        m = get_machine("sg2044")
        assert m.effective_cache_bytes_per_thread(64) < m.effective_cache_bytes_per_thread(1)

    def test_describe_has_table5_fields(self):
        d = get_machine("sg2044").describe()
        assert d["ISA"] == "RV64GCV"
        assert d["Vector"] == "RVV v1.0.0"
        assert "2.60 GHz" in d["Base clock"]
