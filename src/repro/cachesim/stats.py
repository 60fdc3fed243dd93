"""Stall accounting: from a simulated trace to the paper's Table 1 columns.

Table 1 reports, per NPB kernel on the 26-core Xeon 8170:

* *Clock ticks cache stall* -- % of cycles stalled on cache (L2/L3) hits,
* *Clock ticks DDR stall*  -- % of cycles stalled on DRAM accesses,
* *Time DDR bandwidth bound* -- % of execution windows in which aggregate
  DRAM traffic ran near the socket's sustainable bandwidth.

We compute the same three quantities from the trace simulation: per-access
stall cycles by servicing level (with an out-of-order overlap factor --
modern cores hide part of every stall), and a windowed bandwidth analysis
that scales one core's DRAM traffic by the 26 active cores.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro._two_threads import run_in_order

from .hierarchy import CacheHierarchy, LevelResult, xeon8170_hierarchy
from .trace import _build_trace_uncached, build_trace

__all__ = [
    "StallProfile",
    "profile_kernel",
    "table1_profile",
    "clear_profile_cache",
]


#: Socket parameters for the bandwidth-bound analysis (26 cores, 2.1 GHz,
#: ~90 GB/s sustained from 6 channels of DDR4-2666).
_N_CORES = 26
_CLOCK_HZ = 2.1e9
_SUSTAINED_BW = 90e9
_BOUND_THRESHOLD = 0.5


#: Memoised profiles for the default hierarchy, keyed by every input that
#: reaches the simulation, plus the obs counter deltas the underlying
#: ``run_trace`` emitted (re-emitted on hits so telemetry stays a pure
#: function of the logical work, warm or cold).
_profile_cache: dict[tuple, tuple["StallProfile", tuple[int, int, int]]] = {}
_profile_lock = threading.Lock()


#: Simulation order, longest first (per-kernel cold profile time at
#: 60,000 accesses: IS, which resolves the L3 streaming bypass, ~13 ms;
#: the others 6-9 ms), so the last kernel in flight is a short one.
_LONGEST_FIRST = ("is", "sp", "ft", "mg", "cg", "ep", "lu", "bt")


def _simulation_rank(kernel: str) -> int:
    try:
        return _LONGEST_FIRST.index(kernel)
    except ValueError:
        return len(_LONGEST_FIRST)


def clear_profile_cache() -> None:
    """Drop all memoised stall profiles."""
    with _profile_lock:
        _profile_cache.clear()


@dataclass(frozen=True)
class StallProfile:
    """The three Table 1 quantities for one kernel (fractions in [0, 1])."""

    kernel: str
    cache_stall: float
    ddr_stall: float
    ddr_bandwidth_bound: float
    l1_hit_rate: float
    dram_miss_rate: float

    def as_percentages(self) -> tuple[int, int, int]:
        return (
            round(100 * self.cache_stall),
            round(100 * self.ddr_stall),
            round(100 * self.ddr_bandwidth_bound),
        )


def profile_kernel(
    kernel: str,
    hierarchy: CacheHierarchy | None = None,
    n_accesses: int = 120_000,
    seed: int = 42,
    n_windows: int = 50,
    warmup_fraction: float = 0.3,
    engine: str = "vectorized",
) -> StallProfile:
    """Simulate one kernel's trace and account its stalls.

    The first ``warmup_fraction`` of the trace populates the caches but is
    excluded from the accounting -- a short synthetic trace otherwise
    over-reports compulsory misses that vanish in a minutes-long real run.
    ``engine`` selects the trace simulator (both give identical results;
    ``"vectorized"`` is ~10x faster on the default trace length).
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    # Profiles for the default hierarchy are memoised (the sweep/table
    # paths re-request the same kernels); an explicit hierarchy may carry
    # warm state, so those calls always simulate.
    key = None
    if hierarchy is None:
        key = (kernel, n_accesses, seed, n_windows, warmup_fraction, engine)
        with _profile_lock:
            cached = _profile_cache.get(key)
        if cached is not None:
            profile, (acc, fills, dram) = cached
            obs.incr("cachesim.accesses", acc)
            obs.incr("cachesim.line_fills", fills)
            obs.incr("cachesim.dram_accesses", dram)
            return profile
    hier = hierarchy or xeon8170_hierarchy()
    # A default-hierarchy profile is memoised itself, so its trace is
    # built unshared and dropped with the call; memoising it too would
    # only hold eight traces alive for the life of the process.
    build = build_trace if hierarchy is not None else _build_trace_uncached
    trace, prefetchable, spec = build(kernel, n_accesses, seed)
    full_counts, levels_full = hier.run_trace(
        trace, streaming_mask=prefetchable, engine=engine
    )
    cut = int(len(levels_full) * warmup_fraction)
    levels = levels_full[cut:]
    prefetchable = prefetchable[cut:]
    c = np.bincount(levels, minlength=5)
    counts = LevelResult(
        l1_hits=int(c[1]),
        l2_hits=int(c[2]),
        l3_hits=int(c[3]),
        dram_accesses=int(c[4]),
    )

    # Prefetched accesses never stall the core (the stream arrived before
    # the demand load) but still consume DRAM bandwidth; demand accesses
    # stall for the exposed fraction of their service latency.  Per-access
    # cycle cost, vectorised, so windows carry their *own* pace.  Each
    # access is serviced at exactly one level, so at most one stall term
    # is non-zero per access: adding them to ``cycles`` one level at a
    # time through one mask and one stall buffer gives the same bits as
    # summing three stall arrays first.
    lat = hier.latencies
    demand = ~prefetchable
    ov = spec.stall_overlap
    cycles = np.full(len(levels), spec.cycles_per_access)
    mask = np.equal(levels, 1)
    stall = np.multiply(mask, lat[0], dtype=np.float64)
    cycles += stall  # pipelined L1 hits
    level_stall = []
    for level in (2, 3, 4):
        np.equal(levels, level, out=mask)
        mask &= demand
        np.multiply(mask, lat[level - 1] * ov, out=stall)
        cycles += stall
        level_stall.append(stall.sum())
    cache_stall_cycles = float(level_stall[0] + level_stall[1])
    ddr_stall_cycles = float(level_stall[2])
    total_cycles = float(cycles.sum())

    # Windowed bandwidth analysis: does the socket (26 such cores) run
    # near its sustainable DRAM bandwidth during each window?  One
    # cumsum-difference pass over the window edges replaces the former
    # per-window Python loop; empty windows never count as bound.
    window_edges = np.linspace(0, len(levels), n_windows + 1, dtype=int)
    dram_cum = np.concatenate([[0], np.cumsum(levels == 4, dtype=np.int64)])
    dram_lines = dram_cum[window_edges[1:]] - dram_cum[window_edges[:-1]]
    cyc_cum = np.concatenate([[0.0], np.cumsum(cycles)])
    seg_cycles = cyc_cum[window_edges[1:]] - cyc_cum[window_edges[:-1]]
    nonempty = window_edges[1:] > window_edges[:-1]
    socket_bytes = dram_lines * 64 * _N_CORES
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = socket_bytes * _CLOCK_HZ >= (
            _BOUND_THRESHOLD * _SUSTAINED_BW * seg_cycles
        )
    bound_windows = int((bound & nonempty).sum())

    profile = StallProfile(
        kernel=kernel,
        cache_stall=cache_stall_cycles / total_cycles,
        ddr_stall=ddr_stall_cycles / total_cycles,
        ddr_bandwidth_bound=bound_windows / n_windows,
        l1_hit_rate=counts.l1_hits / counts.total,
        dram_miss_rate=counts.dram_accesses / counts.total,
    )
    if key is not None:
        deltas = (
            full_counts.total,
            full_counts.total - full_counts.l1_hits,
            full_counts.dram_accesses,
        )
        with _profile_lock:
            _profile_cache[key] = (profile, deltas)
    return profile


def table1_profile(
    kernels: tuple[str, ...] = ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"),
    n_accesses: int = 120_000,
    seed: int = 42,
    engine: str = "vectorized",
) -> dict[str, StallProfile]:
    """The full Table 1: every kernel's stall profile on the Xeon model.

    Passes ``hierarchy=None`` so :func:`profile_kernel` serves repeats
    from the memoised profile cache (each call still simulates on a fresh
    default hierarchy the first time).  The kernels run longest first
    through :func:`repro._two_threads.run_in_order`: with two usable
    CPUs the calling thread and one ``table1-helper`` thread pull them
    from one queue.  Each profile is the same pure function of its inputs
    on either thread, so the result (in ``kernels`` order) is
    bit-identical to a serial run.
    """
    order = sorted(kernels, key=_simulation_rank)
    profiles = run_in_order(
        lambda kernel: profile_kernel(kernel, None, n_accesses, seed, engine=engine),
        order,
        "table1-helper",
    )
    done = dict(zip(order, profiles))
    return {k: done[k] for k in kernels}
