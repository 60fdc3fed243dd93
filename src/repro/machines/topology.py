"""Chip topology: clusters, NUMA regions, and core enumeration.

The Sophon parts organise 64 cores as 16 clusters of four XuanTie cores
sharing an L2; the EPYC 7742 groups 4-core CCXs sharing an L3 slice across
four NUMA regions.  Thread-placement policies (``OMP_PROC_BIND`` /
``OMP_PLACES``, Section 5.2 of the paper) operate on this topology, and the
cache model needs to know how many active threads share each cache
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["Topology", "CoreLocation"]


@dataclass(frozen=True)
class CoreLocation:
    """Where one logical core sits on the die."""

    core_id: int
    cluster_id: int
    numa_id: int


@dataclass(frozen=True)
class Topology:
    """Socket topology.

    Parameters
    ----------
    total_cores:
        Physical cores (SMT is disabled throughout the paper).
    cores_per_cluster:
        Cores sharing one cluster-level cache instance (4 on the Sophons
        and on EPYC CCXs; 1 where L2 is private).
    numa_regions:
        NUMA domains; cores are split evenly between them (EPYC 7742: 4 x
        16 cores; everything else in the paper is a single region).
    """

    total_cores: int
    cores_per_cluster: int = 1
    numa_regions: int = 1

    def __post_init__(self) -> None:
        if self.total_cores < 1:
            raise ValueError("total_cores must be >= 1")
        if self.cores_per_cluster < 1:
            raise ValueError("cores_per_cluster must be >= 1")
        if self.total_cores % self.cores_per_cluster != 0:
            raise ValueError(
                f"{self.total_cores} cores do not divide into clusters of "
                f"{self.cores_per_cluster}"
            )
        if self.numa_regions < 1:
            raise ValueError("numa_regions must be >= 1")
        if self.total_cores % self.numa_regions != 0:
            raise ValueError(
                f"{self.total_cores} cores do not divide into "
                f"{self.numa_regions} NUMA regions"
            )
        cores_per_numa = self.total_cores // self.numa_regions
        if cores_per_numa % self.cores_per_cluster != 0:
            raise ValueError("clusters must not straddle NUMA regions")

    @property
    def n_clusters(self) -> int:
        return self.total_cores // self.cores_per_cluster

    @property
    def cores_per_numa(self) -> int:
        return self.total_cores // self.numa_regions

    def location(self, core_id: int) -> CoreLocation:
        """Topological coordinates of a core (cores are cluster-major)."""
        if not 0 <= core_id < self.total_cores:
            raise ValueError(f"core_id {core_id} out of range 0..{self.total_cores - 1}")
        return CoreLocation(
            core_id=core_id,
            cluster_id=core_id // self.cores_per_cluster,
            numa_id=core_id // self.cores_per_numa,
        )

    def iter_cores(self) -> Iterator[CoreLocation]:
        for cid in range(self.total_cores):
            yield self.location(cid)

    # ------------------------------------------------------------------
    # Placement helpers: the OMP_PROC_BIND=close/spread core orders.
    # The cost model assumes compact placement throughout
    # (cache_bytes_per_thread_rows); a binding-aware model builds here.
    # ------------------------------------------------------------------

    def compact_placement(self, n_threads: int) -> list[int]:
        """Fill clusters in order (``OMP_PROC_BIND=close``)."""
        self._check_nthreads(n_threads)
        return list(range(n_threads))

    def spread_placement(self, n_threads: int) -> list[int]:
        """Spread threads as widely as possible (``OMP_PROC_BIND=spread``).

        Threads are assigned round-robin over clusters, so cluster-level
        caches and memory controllers are shared as little as possible.
        """
        self._check_nthreads(n_threads)
        order: list[int] = []
        for offset in range(self.cores_per_cluster):
            for cluster in range(self.n_clusters):
                order.append(cluster * self.cores_per_cluster + offset)
        return order[:n_threads]

    def threads_per_cluster(self, placement: Sequence[int]) -> list[int]:
        """How many of the placed threads land in each cluster."""
        counts = [0] * self.n_clusters
        for core_id in placement:
            counts[self.location(core_id).cluster_id] += 1
        return counts

    def max_cluster_occupancy(self, placement: Sequence[int]) -> int:
        """Worst-case threads sharing one cluster cache under a placement."""
        counts = self.threads_per_cluster(placement)
        return max(counts) if counts else 0

    def numa_spread(self, placement: Sequence[int]) -> list[int]:
        """Thread count per NUMA region under a placement."""
        counts = [0] * self.numa_regions
        for core_id in placement:
            counts[self.location(core_id).numa_id] += 1
        return counts

    def _check_nthreads(self, n_threads: int) -> None:
        if not 1 <= n_threads <= self.total_cores:
            raise ValueError(
                f"n_threads {n_threads} out of range 1..{self.total_cores}"
            )
