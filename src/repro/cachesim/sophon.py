"""Sophon cache-hierarchy ablation: does the doubled L2 explain CG?

Section 5.4 of the paper speculates that "potentially the doubling of L2
cache, to 2 MB shared between groups of four cores, could also be having
an impact" on CG.  That hypothesis is directly testable on the trace
simulator: run CG's gather trace through the SG2042's (1 MB L2) and the
SG2044's (2 MB L2) hierarchies and compare where the x-vector gathers are
serviced.

The footprints use the same /64 downscale as the Xeon Table 1 setup, so
CG class C's 1.2 MB x-vector appears as ~19 KiB against 16/32 KiB scaled
L2 instances -- reproducing the real capacity relationship where the
vector straddles the SG2042's L2 but fits the SG2044's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import SetAssociativeCache
from .hierarchy import CacheHierarchy

__all__ = ["sophon_hierarchy", "CGGatherStats", "cg_l2_ablation"]

KiB = 1024
MiB = 1024 * KiB

#: Downscale factor shared with the Xeon hierarchy.
SCALE = 64


def sophon_hierarchy(l2_mib: int, scale: int = SCALE) -> CacheHierarchy:
    """The SG204x per-cluster view: 64 KB L1, ``l2_mib`` MB L2, 64 MB L3."""
    if l2_mib < 1:
        raise ValueError("l2_mib must be >= 1")
    l1 = SetAssociativeCache(max(64 * KiB // scale, 512), 64, 4)
    l2 = SetAssociativeCache(max(l2_mib * MiB // scale, 2048), 64, 16)
    l3 = SetAssociativeCache(max(64 * MiB // scale, 4096), 64, 16)
    return CacheHierarchy(l1, l2, l3, l1_latency=3, l2_latency=24, l3_latency=70, dram_latency=210)


@dataclass(frozen=True)
class CGGatherStats:
    """Where CG's x-vector gathers were serviced on one hierarchy."""

    l2_mib: int
    l1_fraction: float
    l2_fraction: float
    l3_or_dram_fraction: float

    @property
    def fast_fraction(self) -> float:
        """Gathers serviced at cluster distance (L1 + L2)."""
        return self.l1_fraction + self.l2_fraction


def _cg_gather_trace(
    x_vector_bytes: int, matrix_bytes: int, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """CG inner-loop reference stream: matrix streaming + x gathers."""
    rng = np.random.default_rng(seed)
    matrix = (8 * np.arange(n, dtype=np.int64)) % matrix_bytes
    gathers = rng.integers(0, x_vector_bytes, size=n, dtype=np.int64) + matrix_bytes
    addrs = np.empty(2 * n, dtype=np.int64)
    addrs[0::2] = matrix  # streamed values/indices (prefetched)
    addrs[1::2] = gathers  # demand gathers into x
    mask = np.zeros(2 * n, dtype=bool)
    mask[0::2] = True
    return addrs, mask


def cg_l2_ablation(
    x_vector_bytes: int = 19 * KiB,  # class C's 1.2 MB at /64 scale
    n_accesses: int = 40_000,
    seed: int = 5,
) -> dict[int, CGGatherStats]:
    """Run the CG gather trace against 1 MB and 2 MB cluster L2s.

    Returns per-configuration gather service statistics; the SG2044's
    2 MB L2 should hold the whole x-vector where the SG2042's 1 MB loses
    part of it to the (much slower) L3 -- the paper's Section 5.4 story.
    """
    if x_vector_bytes < 1024:
        raise ValueError("x vector too small to be meaningful")
    results: dict[int, CGGatherStats] = {}
    matrix_bytes = 4 * MiB
    addrs, mask = _cg_gather_trace(x_vector_bytes, matrix_bytes, n_accesses, seed)
    for l2_mib in (1, 2):
        hier = sophon_hierarchy(l2_mib)
        _counts, levels = hier.run_trace(
            addrs, streaming_mask=mask, engine="vectorized"
        )
        # Only the gather half of the stream matters for the ablation.
        gather_levels = levels[1::2]
        warm = gather_levels[len(gather_levels) // 4 :]  # skip cold start
        total = len(warm)
        results[l2_mib] = CGGatherStats(
            l2_mib=l2_mib,
            l1_fraction=float((warm == 1).sum()) / total,
            l2_fraction=float((warm == 2).sum()) / total,
            l3_or_dram_fraction=float((warm >= 3).sum()) / total,
        )
    return results
