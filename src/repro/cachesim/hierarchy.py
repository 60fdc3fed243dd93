"""Multi-level cache hierarchy for trace-driven stall analysis.

Mirrors the Xeon Platinum 8170 used for the paper's Table 1 profiling
(32 KB L1 / 1 MB L2 / 1.375 MB-per-core L3), downscaled by a configurable
factor so synthetic traces of a few hundred thousand accesses exercise the
same capacity relationships as the full-size runs (both cache sizes and
workload footprints shrink together; miss *rates* are preserved to first
order -- the standard trace-sampling trick).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs

from .cache import SetAssociativeCache
from .vectorized import run_trace_vectorized

__all__ = [
    "LevelResult",
    "CacheHierarchy",
    "TRACE_ENGINES",
    "xeon8170_hierarchy",
]


def _exact_levels(
    hierarchy: "CacheHierarchy",
    addresses: np.ndarray,
    streaming_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference engine: the per-access dict walk (populates LRU state)."""
    levels = np.empty(len(addresses), dtype=np.int8)
    access = hierarchy.access  # bind for the hot loop
    streaming = (
        streaming_mask.tolist()
        if streaming_mask is not None
        else [False] * len(addresses)
    )
    for i, (a, st) in enumerate(zip(addresses.tolist(), streaming)):
        levels[i] = access(a, st)
    return levels, np.bincount(levels, minlength=5)


def _vectorized_levels(
    hierarchy: "CacheHierarchy",
    addresses: np.ndarray,
    streaming_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fast engine: per-set reuse distances, bit-identical to ``exact``.

    Requires a cold hierarchy (whole-trace analysis has no notion of
    pre-existing LRU state) and does not populate per-set resident-line
    dicts -- only ``CacheStats`` counters.  Use ``exact`` to continue
    from warm state or to inspect resident lines afterwards.
    """
    for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
        if cache.stats.accesses or cache.resident_lines():
            raise ValueError(
                "engine='vectorized' requires a cold hierarchy; "
                "construct a fresh one or use engine='exact'"
            )
    levels, per_level = run_trace_vectorized(hierarchy, addresses, streaming_mask)
    for cache, (hits, accesses) in zip(
        (hierarchy.l1, hierarchy.l2, hierarchy.l3), per_level
    ):
        cache.stats.hits += hits
        cache.stats.misses += accesses - hits
    # The per-level (hits, accesses) pairs already hold the histogram:
    # level-N hits, plus DRAM = the L3 misses.
    (l1_h, _), (l2_h, _), (l3_h, l3_n) = per_level
    counts = np.array([0, l1_h, l2_h, l3_h, l3_n - l3_h], dtype=np.int64)
    return levels, counts


# Scalar/vectorized engine pair, registered together so the
# implementations cannot drift apart silently
# (tests/cachesim/test_vectorized.py holds the pair).
TRACE_ENGINES = {
    "exact": _exact_levels,
    "vectorized": _vectorized_levels,
}


@dataclass(frozen=True)
class LevelResult:
    """Where each access in a trace was serviced."""

    l1_hits: int
    l2_hits: int
    l3_hits: int
    dram_accesses: int

    @property
    def total(self) -> int:
        return self.l1_hits + self.l2_hits + self.l3_hits + self.dram_accesses


class CacheHierarchy:
    """Inclusive three-level hierarchy with per-level latencies."""

    def __init__(
        self,
        l1: SetAssociativeCache,
        l2: SetAssociativeCache,
        l3: SetAssociativeCache,
        l1_latency: int = 4,
        l2_latency: int = 14,
        l3_latency: int = 60,
        dram_latency: int = 200,
    ) -> None:
        for lat in (l1_latency, l2_latency, l3_latency, dram_latency):
            if lat <= 0:
                raise ValueError("latencies must be positive")
        self.l1, self.l2, self.l3 = l1, l2, l3
        self.latencies = (l1_latency, l2_latency, l3_latency, dram_latency)

    def access(self, address: int, streaming: bool = False) -> int:
        """Access one address; returns the servicing level (1, 2, 3, 4=DRAM).

        ``streaming`` accesses (detected-prefetchable lines) bypass L3
        allocation: streaming-resistant replacement keeps the shared LLC
        for reuse-heavy data, which is how the real Xeon keeps IS's
        histogram resident under the key-array sweeps.
        """
        if self.l1.access(address):
            return 1
        if self.l2.access(address):
            return 2
        if self.l3.access(address, allocate=not streaming):
            return 3
        return 4

    def run_trace(
        self,
        addresses: np.ndarray,
        streaming_mask: np.ndarray | None = None,
        engine: str = "exact",
    ) -> tuple[LevelResult, np.ndarray]:
        """Run a whole trace; returns counts and the per-access level array.

        ``engine`` selects the implementation: ``"exact"`` walks the
        dict-based caches access by access (the reference oracle; keeps
        resident-line state and works on warm hierarchies), while
        ``"vectorized"`` computes the same per-access outcomes with the
        reuse-distance engine in :mod:`repro.cachesim.vectorized` --
        bit-identical results (level array, ``LevelResult``, ``CacheStats``
        and telemetry counters) at a ~10x lower cost, but cold-start only.
        """
        if addresses.ndim != 1:
            raise ValueError("trace must be a flat address array")
        if streaming_mask is not None and len(streaming_mask) != len(addresses):
            raise ValueError("streaming mask must match the trace length")
        try:
            run = TRACE_ENGINES[engine]
        except KeyError:
            raise ValueError(
                f"unknown trace engine {engine!r}; "
                f"expected one of {sorted(TRACE_ENGINES)}"
            ) from None
        levels, counts = run(self, addresses, streaming_mask)
        obs.incr("cachesim.accesses", len(addresses))
        obs.incr("cachesim.line_fills", len(addresses) - int(counts[1]))
        obs.incr("cachesim.dram_accesses", int(counts[4]))
        return (
            LevelResult(
                l1_hits=int(counts[1]),
                l2_hits=int(counts[2]),
                l3_hits=int(counts[3]),
                dram_accesses=int(counts[4]),
            ),
            levels,
        )


def xeon8170_hierarchy(scale: int = 64) -> CacheHierarchy:
    """The Table 1 profiling platform's per-core hierarchy, downscaled.

    ``scale`` divides every capacity; latencies are unchanged.  The L3
    share is one core's 1.375 MB slice plus a modest spill allowance into
    neighbours' slices (NPB's threads have similar footprints, so the
    effective share is close to the slice).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    kib = 1024
    l1 = SetAssociativeCache(max(32 * kib // scale, 512), 64, 8)
    l2 = SetAssociativeCache(max(1024 * kib // scale, 1024), 64, 16)
    # The whole 35.75 MB L3 is shared; NPB's structures (IS's histogram
    # most importantly) are shared or symmetric across threads, so one
    # core effectively sees the full capacity.
    l3_total = 35 * 1024 * kib + 768 * kib
    l3 = SetAssociativeCache(max(l3_total // scale, 2048), 64, 11)
    return CacheHierarchy(l1, l2, l3, l1_latency=4, l2_latency=14, l3_latency=60, dram_latency=200)
