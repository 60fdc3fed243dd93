"""The :class:`Machine` aggregate: one socket the paper benchmarks.

A machine bundles a core model, clock, topology, cache hierarchy and memory
subsystem, plus the handful of whole-chip parameters (barrier cost,
parallel-runtime overhead) that the multi-core scaling model needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpu import CacheLevel, CacheSharing, CoreModel
from .memory import MemorySubsystem
from .topology import Topology

__all__ = [
    "Machine",
    "barrier_cost_rows",
    "cache_bytes_per_thread_rows",
    "parallel_efficiency_rows",
    "spans_numa_rows",
]


# ----------------------------------------------------------------------
# Row formulas: the machine side of the performance model, elementwise
# over arrays of validated thread counts ``ns`` (all >= 1).  Every
# machine parameter may be a scalar or a per-row column, so one block
# of rows can span many machines; the ``Machine`` methods below are
# their one-row views.
# ----------------------------------------------------------------------


def cache_bytes_per_thread_rows(ns: np.ndarray, size_bytes, sharers) -> np.ndarray:
    """Total cache capacity one of ``ns`` threads effectively owns.

    ``size_bytes`` and ``sharers`` hold one row per cache level, L1
    first: an instance's capacity and how many cores share it.  Each
    level contributes its instance capacity divided by the active threads
    sharing it under a compact placement (threads fill clusters in
    order), ``size / min(sharers, n)``: a private level (1 sharer)
    counts whole, a chip-wide one (``n_cores`` sharers, never fewer than
    ``n``) splits ``n`` ways.  This is the quantity the working-set model
    compares against (the paper invokes it when attributing CG gains to
    the SG2044's doubled 2 MB cluster L2).
    """
    per_level = size_bytes / np.minimum(sharers, ns)
    total = per_level[0]
    for level in per_level[1:]:
        total = total + level
    return total


def barrier_cost_rows(ns: np.ndarray, barrier_base_ns, barrier_log_coeff_ns) -> np.ndarray:
    """Cost of one OpenMP barrier across each of ``ns`` threads (seconds).

    Tree-barrier shaped, ``base + coeff * log2(n)``; free at one thread.
    """
    cost = (barrier_base_ns + barrier_log_coeff_ns * np.log2(ns)) * 1e-9
    return np.where(ns == 1, 0.0, cost)


def spans_numa_rows(ns: np.ndarray, numa_regions, cores_per_numa) -> np.ndarray:
    """Whether ``ns`` compactly placed threads span more than one NUMA region."""
    return (numa_regions > 1) & (ns > cores_per_numa)


def parallel_efficiency_rows(
    ns: np.ndarray, os_noise_coeff, numa_penalty, remote
) -> np.ndarray:
    """Machine-side thread-scaling derating over an array of counts.

    ``os_noise_coeff`` models scheduler noise and runtime overhead
    growing with thread count (the SG2042 loses ~17% of EP's ideal
    scaling at 64 cores this way).  ``numa_penalty`` applies to the
    ``remote`` rows: runs spanning more than one NUMA region
    (remote-touch pages under the NPB OpenMP codes' untuned first-touch
    behaviour -- relevant only to the four-region EPYC 7742 here) of
    ``numa_sensitive`` workloads.  A kernel with no DRAM traffic (EP) has
    no remote pages to touch, which is why the EPYC keeps its EP lead all
    the way to 64 cores in the paper's Figure 4.
    """
    eff = np.maximum(0.4, 1.0 - os_noise_coeff * np.log2(ns))
    eff = np.where(remote, eff * numa_penalty, eff)
    return np.where(ns == 1, 1.0, eff)


@dataclass(frozen=True)
class Machine:
    """One benchmarked socket.

    Parameters
    ----------
    name:
        Short identifier used throughout the harness (``"sg2044"``).
    label:
        Display name as the paper prints it (``"Sophon SG2044"``).
    part:
        Part number for the Table 5 renderer.
    core:
        The per-core microarchitecture model.
    clock_hz:
        Base clock.  The paper measured 2.6 GHz on its SG2044 test system
        (SOPHGO have not published a figure; [11] suggests 2.8 GHz).
    topology:
        Cluster/NUMA layout.
    caches:
        Data-cache hierarchy, L1 first.
    memory:
        Off-chip memory subsystem.
    barrier_base_ns / barrier_log_coeff_ns:
        OpenMP barrier cost model ``t = base + coeff * log2(n)``;
        tree-barrier shaped, calibrated per interconnect quality.
    smt:
        Hardware threads per core (the paper disables SMT everywhere, but
        the catalog records it for completeness).
    """

    name: str
    label: str
    part: str
    core: CoreModel
    clock_hz: float
    topology: Topology
    caches: tuple[CacheLevel, ...]
    memory: MemorySubsystem
    barrier_base_ns: float = 400.0
    barrier_log_coeff_ns: float = 250.0
    os_noise_coeff: float = 0.004
    numa_penalty: float = 1.0
    smt: int = 1
    notes: str = ""

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if not self.caches:
            raise ValueError("a machine needs at least one cache level")
        levels = [c.level for c in self.caches]
        if levels != sorted(levels) or len(set(levels)) != len(levels):
            raise ValueError("caches must be listed L1..L3 without duplicates")
        if self.smt < 1:
            raise ValueError("smt must be >= 1")
        if self.os_noise_coeff < 0:
            raise ValueError("os_noise_coeff must be non-negative")
        if not 0.0 < self.numa_penalty <= 1.0:
            raise ValueError("numa_penalty must be in (0, 1]")
        if self.topology.numa_regions != self.memory.numa_regions:
            raise ValueError(
                f"{self.name}: topology has {self.topology.numa_regions} NUMA "
                f"regions but memory model has {self.memory.numa_regions}"
            )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def n_cores(self) -> int:
        return self.topology.total_cores

    @property
    def clock_ghz(self) -> float:
        return self.clock_hz / 1e9

    def cache(self, level: int) -> CacheLevel | None:
        """Cache descriptor for a level, or ``None`` if absent."""
        for c in self.caches:
            if c.level == level:
                return c
        return None

    @property
    def last_level_cache(self) -> CacheLevel:
        return self.caches[-1]

    def cores_sharing(self, cache: CacheLevel) -> int:
        """How many cores share one instance of ``cache``."""
        if cache.sharing is CacheSharing.PRIVATE:
            return 1
        if cache.sharing is CacheSharing.CLUSTER:
            return self.topology.cores_per_cluster
        return self.n_cores

    def cache_levels(self) -> tuple[tuple[int, int], ...]:
        """``(size_bytes, sharers)`` of each cache level, L1 first: an
        instance's capacity and how many cores share it."""
        return tuple((c.size_bytes, self.cores_sharing(c)) for c in self.caches)

    def effective_cache_bytes_per_thread(self, n_threads: int) -> float:
        """Scalar view of :func:`cache_bytes_per_thread_rows`."""
        ns = np.asarray([n_threads])
        if not 1 <= n_threads <= self.n_cores:
            raise ValueError(f"thread counts {ns} out of range for {self.name}")
        levels = np.asarray(self.cache_levels())
        return float(cache_bytes_per_thread_rows(ns, levels[:, :1], levels[:, 1:])[0])

    # ------------------------------------------------------------------
    # Whole-chip rate helpers used by the performance model
    # ------------------------------------------------------------------

    def scalar_rate_per_core(self) -> float:
        """Sustained scalar instructions per second for one core."""
        return self.core.sustained_ipc * self.clock_hz

    def barrier_cost_s(self, n_threads: int) -> float:
        """Scalar view of :func:`barrier_cost_rows`."""
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        ns = np.asarray([n_threads])
        return float(
            barrier_cost_rows(ns, self.barrier_base_ns, self.barrier_log_coeff_ns)[0]
        )

    def parallel_efficiency(self, n_threads: int, numa_sensitive: bool = True) -> float:
        """Scalar view of :func:`parallel_efficiency_rows`."""
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        ns = np.asarray([n_threads])
        remote = numa_sensitive & spans_numa_rows(
            ns, self.topology.numa_regions, self.topology.cores_per_numa
        )
        return float(
            parallel_efficiency_rows(ns, self.os_noise_coeff, self.numa_penalty, remote)[0]
        )

    def validate_thread_count(self, n_threads: int) -> None:
        if not 1 <= n_threads <= self.n_cores:
            raise ValueError(
                f"{self.name} has {self.n_cores} cores; cannot run "
                f"{n_threads} threads (SMT is disabled per the paper)"
            )

    def describe(self) -> dict[str, str]:
        """Row for the Table 5 renderer."""
        return {
            "CPU": self.label,
            "ISA": self.core.isa.value,
            "Part": self.part,
            "Base clock": f"{self.clock_ghz:.2f} GHz",
            "Cores": str(self.n_cores),
            "Vector": self.core.vector.standard.value,
            "Memory": self.memory.describe(),
        }
