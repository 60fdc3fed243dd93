"""Topology: cluster/NUMA coordinates and placements."""

import math

import pytest

from repro.machines import get_machine, machine_names
from repro.machines.topology import Topology


class TestTopology:
    def test_sophon_layout(self):
        t = Topology(total_cores=64, cores_per_cluster=4)
        assert t.n_clusters == 16
        assert t.location(0).cluster_id == 0
        assert t.location(5).cluster_id == 1
        assert t.location(63).cluster_id == 15

    def test_numa_assignment(self):
        t = Topology(total_cores=64, cores_per_cluster=4, numa_regions=4)
        assert t.cores_per_numa == 16
        assert t.location(0).numa_id == 0
        assert t.location(17).numa_id == 1
        assert t.location(63).numa_id == 3

    def test_iter_cores_covers_everything(self):
        t = Topology(total_cores=8, cores_per_cluster=4)
        assert [c.core_id for c in t.iter_cores()] == list(range(8))

    def test_compact_placement(self):
        t = Topology(total_cores=16, cores_per_cluster=4)
        assert t.compact_placement(6) == [0, 1, 2, 3, 4, 5]

    def test_spread_placement_covers_clusters_first(self):
        t = Topology(total_cores=16, cores_per_cluster=4)
        placement = t.spread_placement(4)
        assert sorted(t.location(c).cluster_id for c in placement) == [0, 1, 2, 3]

    def test_spread_minimises_cluster_occupancy(self):
        t = Topology(total_cores=64, cores_per_cluster=4)
        assert t.max_cluster_occupancy(t.spread_placement(16)) == 1
        assert t.max_cluster_occupancy(t.compact_placement(16)) == 4

    def test_numa_spread_counts(self):
        t = Topology(total_cores=8, cores_per_cluster=2, numa_regions=2)
        assert t.numa_spread([0, 1, 4, 5]) == [2, 2]

    def test_cluster_straddling_numa_rejected(self):
        with pytest.raises(ValueError):
            Topology(total_cores=12, cores_per_cluster=4, numa_regions=2)

    def test_indivisible_clusters_rejected(self):
        with pytest.raises(ValueError):
            Topology(total_cores=10, cores_per_cluster=4)

    def test_out_of_range_core_rejected(self):
        with pytest.raises(ValueError):
            Topology(total_cores=4).location(4)

    def test_bad_thread_count_rejected(self):
        with pytest.raises(ValueError):
            Topology(total_cores=4).compact_placement(5)


@pytest.mark.parametrize("name", machine_names())
class TestCatalogPlacement:
    """The close/spread core orders on every catalog machine's topology."""

    @staticmethod
    def _topology(name: str) -> Topology:
        return get_machine(name).topology

    def test_spread_puts_each_thread_on_its_own_core(self, name):
        t = self._topology(name)
        for n in range(1, t.total_cores + 1):
            placement = t.spread_placement(n)
            assert len(set(placement)) == n
            assert all(0 <= core < t.total_cores for core in placement)

    def test_spread_fills_every_cluster_before_doubling_up(self, name):
        t = self._topology(name)
        for n in range(1, t.total_cores + 1):
            occupancy = t.max_cluster_occupancy(t.spread_placement(n))
            assert occupancy == math.ceil(n / t.n_clusters)

    def test_spread_never_shares_a_cluster_more_than_close(self, name):
        t = self._topology(name)
        for n in range(1, t.total_cores + 1):
            close = t.max_cluster_occupancy(t.compact_placement(n))
            assert close == min(n, t.cores_per_cluster)
            assert t.max_cluster_occupancy(t.spread_placement(n)) <= close

    def test_full_chip_close_equals_spread(self, name):
        t = self._topology(name)
        full = t.total_cores
        assert sorted(t.spread_placement(full)) == t.compact_placement(full)
        per_cluster = t.threads_per_cluster(t.spread_placement(full))
        assert per_cluster == [t.cores_per_cluster] * t.n_clusters
        assert sum(t.numa_spread(t.spread_placement(full))) == full

    def test_thread_count_validated(self, name):
        t = self._topology(name)
        for bad in (0, t.total_cores + 1):
            with pytest.raises(ValueError, match="out of range"):
                t.compact_placement(bad)
            with pytest.raises(ValueError, match="out of range"):
                t.spread_placement(bad)
