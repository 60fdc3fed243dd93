"""Memory-subsystem model: controllers, channels, and saturation curves.

This module carries the paper's central explanatory mechanism.  Section 5.2
concludes that the SG2042's four controllers/channels saturate beyond a
cores-to-channel ratio of ~4:1 while the SG2044's 32 channels comfortably
handle its maximum 2:1 ratio; Figure 1 shows STREAM copy bandwidth scaling
with cores on the SG2044 but plateauing at ~8 cores on the SG2042.  We model
both effects with a *smooth-min* saturation law:

``BW(n) = smoothmin(n * per_core_bw, total_sustained_bw)``

and, for latency-bound (random access) traffic such as the IS benchmark,
the performance model's latency term (:mod:`repro.core.perfmodel`) uses

``R(n) = smoothmin(n * mlp / latency, channels * per_channel_random_rate)``

The smooth-min function behaves linearly while demand is far below the
cap and bends onto the cap as demand approaches it, with a sharpness knob
controlling how abrupt the knee is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ddr import DDRSpec

__all__ = [
    "smoothmin",
    "smoothmin_rows",
    "MemorySubsystem",
]


def smoothmin_rows(demand, cap, sharpness):
    """The smooth-min formula itself, unchecked.

    Elementwise over any mix of floats and arrays.  :func:`smoothmin`
    validates its arguments around it; the performance model validates
    its ceilings once per evaluation block and calls it directly.
    """
    ratio = demand / cap
    return demand / (1.0 + ratio**sharpness) ** (1.0 / sharpness)


def smoothmin(demand: float, cap: float, sharpness: float = 4.0) -> float:
    """Smoothly saturating minimum of ``demand`` and ``cap``.

    Uses the p-norm form ``demand / (1 + (demand/cap)^p)^(1/p)`` which is
    ~= ``demand`` when ``demand << cap``, ~= ``cap`` when ``demand >> cap``,
    and approaches ``min`` exactly as ``sharpness -> inf``.

    Parameters
    ----------
    demand:
        Aggregate requested throughput (any unit).
    cap:
        Hard resource ceiling, same unit.
    sharpness:
        Knee sharpness ``p >= 1``.  4 reproduces the gentle roll-off seen
        in STREAM curves; 8+ looks like a hard clamp.
    """
    if demand < 0 or cap <= 0:
        raise ValueError(f"demand must be >= 0 and cap > 0 (got {demand}, {cap})")
    if sharpness < 1.0:
        raise ValueError("sharpness must be >= 1")
    if demand == 0.0:
        return 0.0
    return smoothmin_rows(demand, cap, sharpness)


@dataclass(frozen=True)
class MemorySubsystem:
    """Off-chip memory of one socket.

    Parameters
    ----------
    ddr:
        Per-channel DRAM specification.
    controllers / channels:
        Counts straight from the paper (SG2042: 4/4, SG2044: 32/32,
        EPYC 7742: 8/8, Skylake 8170: 2/6, ThunderX2: 2/8).
    capacity_bytes:
        Installed DRAM (matters for "DNR" cases -- the AllWinner D1's 1 GB
        cannot hold FT class B).
    per_core_stream_bw_gbs:
        Bandwidth one core can extract on a streaming kernel, limited by
        its load/store units and outstanding-miss queue -- *not* by DRAM.
        This is the calibrated slope of the left side of Figure 1.
    core_mlp:
        Memory-level parallelism: outstanding cache-line misses one core
        sustains on a random-access workload (MSHR count effectively used).
    numa_regions:
        NUMA domains (EPYC 7742: 4; SG2044 is a single region -- an
        explicit upgrade over the SG2042 per SOPHGO engineers).
    extra_latency_ns:
        Interconnect/fabric latency added on top of the DRAM core latency
        (mesh/ring hop costs; higher for many-core meshes).
    saturation_sharpness:
        Knee sharpness for the saturation curves; lower values bend
        earlier, which is how the SG2042's early plateau is expressed.
    """

    ddr: DDRSpec
    controllers: int
    channels: int
    capacity_bytes: int
    per_core_stream_bw_gbs: float
    core_mlp: float = 10.0
    numa_regions: int = 1
    extra_latency_ns: float = 25.0
    saturation_sharpness: float = 4.0
    random_rate_scale: float = 1.0
    sustained_bw_override_gbs: float | None = None
    llc_random_boost: float = 3.0

    def __post_init__(self) -> None:
        if self.controllers < 1 or self.channels < 1:
            raise ValueError("controllers/channels must be >= 1")
        if self.channels % self.controllers != 0 and self.controllers % self.channels != 0:
            # Real parts pair them in simple integer ratios.
            raise ValueError(
                f"channels ({self.channels}) and controllers ({self.controllers}) "
                "must divide evenly"
            )
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.per_core_stream_bw_gbs <= 0:
            raise ValueError("per-core stream bandwidth must be positive")
        if self.core_mlp < 1:
            raise ValueError("core_mlp must be >= 1")
        if self.numa_regions < 1:
            raise ValueError("numa_regions must be >= 1")
        if self.sustained_bw_override_gbs is not None and self.sustained_bw_override_gbs <= 0:
            raise ValueError("sustained_bw_override_gbs must be positive when set")
        if self.llc_random_boost < 1.0:
            raise ValueError("llc_random_boost must be >= 1 (LLC is faster than DRAM)")

    # ------------------------------------------------------------------
    # Bandwidth (streaming) model
    # ------------------------------------------------------------------

    @property
    def peak_bw_gbs(self) -> float:
        """Theoretical peak bandwidth across all channels (GB/s)."""
        return self.channels * self.ddr.channel_peak_bw_gbs

    @property
    def sustained_bw_gbs(self) -> float:
        """Sustained streaming ceiling across all channels (GB/s).

        Defaults to the JEDEC-derived figure, but real controllers -- the
        SG2042's most famously -- deliver far less, so the catalog may pin
        the measured ceiling (e.g. the Figure 1 plateau) instead.
        """
        if self.sustained_bw_override_gbs is not None:
            return self.sustained_bw_override_gbs
        return self.channels * self.ddr.channel_sustained_bw_gbs

    def stream_bw_gbs(self, n_cores: int) -> float:
        """STREAM-style sustainable bandwidth with ``n_cores`` active.

        This is the function plotted in the paper's Figure 1: linear in
        ``n`` while cores are the bottleneck, saturating at the channel
        ceiling once demand exceeds what the DRAM can deliver.
        """
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        demand = n_cores * self.per_core_stream_bw_gbs
        return smoothmin(demand, self.sustained_bw_gbs, self.saturation_sharpness)

    # ------------------------------------------------------------------
    # Latency (random access) model
    # ------------------------------------------------------------------

    @property
    def idle_latency_ns(self) -> float:
        """Unloaded DRAM access latency including fabric (ns)."""
        return self.ddr.random_access_latency_ns + self.extra_latency_ns

    def random_rate_cap(self) -> float:
        """Chip-wide random cache-line access ceiling (requests/s)."""
        return (
            self.channels
            * self.ddr.random_requests_per_second()
            * self.random_rate_scale
        )

    # ------------------------------------------------------------------

    def fits(self, working_set_bytes: int) -> bool:
        """Whether a working set fits in installed DRAM (with OS headroom)."""
        if working_set_bytes < 0:
            raise ValueError("working set must be non-negative")
        headroom = 0.85  # kernel + runtime keep ~15%
        return working_set_bytes <= self.capacity_bytes * headroom

    def describe(self) -> str:
        """One-line human-readable summary used by the Table 5 renderer."""
        return (
            f"{self.ddr.name}, {self.controllers} MC / {self.channels} ch, "
            f"{self.capacity_bytes / 2**30:.0f} GiB, "
            f"{self.sustained_bw_gbs:.0f} GB/s sustained"
        )
