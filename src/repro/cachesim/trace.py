"""Synthetic per-kernel memory-access traces.

Each NPB benchmark's data-access pattern is expressed as a weighted mix of
primitive reference streams (sequential, strided, uniform/Gaussian random,
index-gather, stencil sweep), with footprints scaled to the hierarchy's
downscaling factor.  Pushing these through the simulated Xeon hierarchy
reproduces the *stall character* of the paper's Table 1 -- which kernels
stall on cache, which on DRAM, which saturate bandwidth.

The compute intensity (``cycles_per_access``) is part of the kernel spec:
EP performs ~40 arithmetic cycles per memory reference, IS barely 2.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TraceSpec",
    "KERNEL_TRACES",
    "build_trace",
    "clear_trace_cache",
    "sequential",
    "strided",
    "uniform_random",
    "gaussian_random",
    "gather",
    "stencil_sweep",
]

LINE = 64


def sequential(footprint: int, n: int, rng: np.random.Generator):
    """Unit-stride stream over ``footprint`` bytes (prefetchable)."""
    start = int(rng.integers(0, footprint))
    addrs = (start + 8 * np.arange(n, dtype=np.int64)) % footprint
    return addrs, np.ones(n, dtype=bool)


def strided(footprint: int, n: int, rng: np.random.Generator, stride: int = 4096):
    """Fixed large-stride stream (transpose/column walks; the stride
    detector catches these, so they are prefetchable too)."""
    start = int(rng.integers(0, footprint))
    addrs = (start + stride * np.arange(n, dtype=np.int64)) % footprint
    return addrs, np.ones(n, dtype=bool)


def uniform_random(footprint: int, n: int, rng: np.random.Generator):
    """Uniform random references (demand misses; no prefetch)."""
    return rng.integers(0, footprint, size=n, dtype=np.int64), np.zeros(n, dtype=bool)


def gaussian_random(footprint: int, n: int, rng: np.random.Generator):
    """Centre-heavy random references: IS keys are sums of four uniforms."""
    centre = footprint / 2.0
    spread = footprint / 8.0
    raw = rng.normal(centre, spread, size=n)
    return np.clip(raw, 0, footprint - 1).astype(np.int64), np.zeros(n, dtype=bool)


def gather(footprint: int, n: int, rng: np.random.Generator):
    """Index-load-then-gather pairs (CG's x[col[k]]): a prefetchable
    sequential index stream alternating with demand gathers into a
    smaller vector footprint."""
    idx_stream, _ = sequential(footprint, n // 2, rng)
    target = rng.integers(0, max(footprint // 8, LINE), size=n - n // 2, dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    out[0::2] = idx_stream[: len(out[0::2])]
    mask[0::2] = True
    out[1::2] = target[: len(out[1::2])] + footprint  # distinct region
    return out, mask


def stencil_sweep(footprint: int, n: int, rng: np.random.Generator):
    """27-point stencil sweep: three plane-offset streams interleaved.

    The unit-stride direction prefetches; the plane-offset re-reads are
    only partially covered (2 of 3 references prefetchable)."""
    plane = max(footprint // 8192, LINE)
    base, _ = sequential(footprint, n, rng)
    offsets = np.tile(np.array([0, -plane, plane], dtype=np.int64), n // 3 + 1)[:n]
    mask = np.tile(np.array([True, True, False]), n // 3 + 1)[:n]
    return (base + offsets) % footprint, mask


_PATTERNS = {
    "sequential": sequential,
    "strided": strided,
    "uniform_random": uniform_random,
    "gaussian_random": gaussian_random,
    "gather": gather,
    "stencil": stencil_sweep,
}


@dataclass(frozen=True)
class TraceSpec:
    """One kernel's access-pattern mix.

    ``streams`` is a tuple of ``(pattern, weight, footprint_bytes)`` at
    the *downscaled* hierarchy (scale 64; full-size footprints are 64x);
    the same pattern may appear more than once with different footprints
    (e.g. a hot and a cold random region).  ``cycles_per_access`` is the
    arithmetic work between references; ``stall_overlap`` is the fraction
    of demand-miss latency the core's out-of-order window exposes (low
    for kernels with many independent misses in flight, like IS's
    histogram updates).
    """

    kernel: str
    streams: tuple[tuple[str, float, int], ...]
    cycles_per_access: float
    stall_overlap: float = 0.6
    #: Phase-structured kernels (FT's transpose bursts, IS's key passes)
    #: alternate their streams in blocks instead of interleaving them,
    #: which is what makes *part* of their runtime bandwidth-bound.
    phased: bool = False

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError("a trace spec needs at least one stream")
        total = sum(w for _, w, _ in self.streams)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"stream weights must sum to 1, got {total}")
        if self.cycles_per_access <= 0:
            raise ValueError("cycles_per_access must be positive")
        if not 0.0 < self.stall_overlap <= 1.0:
            raise ValueError("stall_overlap must be in (0, 1]")
        for name, _, fp in self.streams:
            if name not in _PATTERNS:
                raise ValueError(f"unknown pattern {name!r}")
            if fp < LINE:
                raise ValueError("footprint must cover at least one line")


MiB = 1 << 20
KiB = 1 << 10

#: Footprints are full-size / 64 (the hierarchy downscale factor): e.g.
#: IS class C's 33 MB histogram appears as ~512 KiB.  The mixes are fits
#: against the paper's Table 1 (see EXPERIMENTS.md for the comparison).
KERNEL_TRACES: dict[str, TraceSpec] = {
    "is": TraceSpec(
        "is",
        (
            ("sequential", 0.25, 16 * MiB),  # key-array passes (phases)
            ("gaussian_random", 0.75, 256 * KiB),  # histogram (fits L3)
        ),
        cycles_per_access=6.0,
        stall_overlap=0.10,  # many independent updates in flight
        phased=True,
    ),
    "mg": TraceSpec(
        "mg",
        (
            ("sequential", 0.74, 24 * MiB),  # unit-stride grid sweeps
            ("stencil", 0.12, 24 * MiB),  # near-plane re-reads
            ("uniform_random", 0.12, 64 * KiB),  # level-boundary data
            ("uniform_random", 0.02, 6 * MiB),  # inter-level index walks
        ),
        cycles_per_access=1.0,
        stall_overlap=0.30,
    ),
    "ep": TraceSpec(
        "ep",
        (
            ("sequential", 0.82, 32 * KiB),  # batch buffers
            ("uniform_random", 0.18, 64 * KiB),  # annulus counters etc.
        ),
        cycles_per_access=20.0,
        stall_overlap=0.3,
    ),
    "cg": TraceSpec(
        "cg",
        (
            ("sequential", 0.50, 4 * MiB),  # matrix values/indices stream
            ("gather", 0.46, 152 * KiB),  # x-vector gathers (19 KiB hot)
            ("uniform_random", 0.04, 4 * MiB),  # prefetch-missed rows
        ),
        cycles_per_access=9.0,
        stall_overlap=0.45,
    ),
    "ft": TraceSpec(
        "ft",
        (
            ("sequential", 0.585, 16 * MiB),  # butterfly passes
            ("strided", 0.30, 16 * MiB),  # transposes
            ("uniform_random", 0.09, 64 * KiB),  # twiddle factors
            ("uniform_random", 0.025, 4 * MiB),  # bit-reversal scatter
        ),
        cycles_per_access=12.0,
        stall_overlap=0.35,
        phased=True,
    ),
    "bt": TraceSpec(
        "bt",
        (
            ("sequential", 0.853, 8 * MiB),
            ("strided", 0.04, 8 * MiB),
            ("uniform_random", 0.08, 48 * KiB),  # block working sets
            ("uniform_random", 0.027, 8 * MiB),
        ),
        cycles_per_access=22.0,
        stall_overlap=0.5,
    ),
    "lu": TraceSpec(
        "lu",
        (
            ("sequential", 0.814, 8 * MiB),
            ("strided", 0.05, 8 * MiB),
            ("uniform_random", 0.107, 64 * KiB),  # hyperplane gathers
            ("uniform_random", 0.029, 8 * MiB),
        ),
        cycles_per_access=18.0,
        stall_overlap=0.5,
    ),
    "sp": TraceSpec(
        "sp",
        (
            ("sequential", 0.66, 12 * MiB),
            ("strided", 0.08, 12 * MiB),
            ("uniform_random", 0.20, 64 * KiB),  # five-band working rows
            ("uniform_random", 0.06, 12 * MiB),
        ),
        cycles_per_access=15.0,
        stall_overlap=0.5,
    ),
}


_trace_cache: dict[tuple, tuple[np.ndarray, np.ndarray, TraceSpec]] = {}
_trace_lock = threading.Lock()


def build_trace(
    kernel: str, n_accesses: int = 120_000, seed: int = 42
) -> tuple[np.ndarray, np.ndarray, TraceSpec]:
    """Materialise a kernel's trace: (addresses, prefetchable-mask, spec).

    Addresses are int32, or int64 when one reaches 2**31.  Memoised per
    ``(kernel, n_accesses, seed)`` -- generation is pure, and every
    simulator pass over the same kernel spec re-requests the same trace.
    Cached arrays are marked read-only; copy before mutating.
    :func:`clear_trace_cache` evicts.
    """
    key = (kernel, n_accesses, seed)
    with _trace_lock:
        hit = _trace_cache.get(key)
    if hit is not None:
        return hit
    addrs, mask, spec = _build_trace_uncached(kernel, n_accesses, seed)
    addrs.setflags(write=False)
    mask.setflags(write=False)
    with _trace_lock:
        _trace_cache[key] = (addrs, mask, spec)
    return addrs, mask, spec


def clear_trace_cache() -> None:
    """Drop all memoised traces."""
    with _trace_lock:
        _trace_cache.clear()


def _build_trace_uncached(
    kernel: str, n_accesses: int, seed: int
) -> tuple[np.ndarray, np.ndarray, TraceSpec]:
    """Streams are interleaved round-robin, the way the kernels' inner
    loops mix their references."""
    try:
        spec = KERNEL_TRACES[kernel]
    except KeyError:
        known = ", ".join(sorted(KERNEL_TRACES))
        raise KeyError(f"unknown kernel {kernel!r}; known: {known}") from None
    if n_accesses < 1000:
        raise ValueError("trace too short to be meaningful")
    rng = np.random.default_rng(seed)
    pieces = []
    masks = []
    base_offset = 0
    for name, weight, footprint in spec.streams:
        count = int(round(weight * n_accesses))
        if count == 0:
            continue
        addrs, mask = _PATTERNS[name](footprint, count, rng)
        pieces.append(addrs + base_offset)
        masks.append(mask)
        base_offset += 2 * footprint + 16 * MiB  # disjoint regions
    if spec.phased:
        # Alternate the streams in ~10 block-phases each.
        n_phases = 10
        out_p: list[np.ndarray] = []
        out_m: list[np.ndarray] = []
        for ph in range(n_phases):
            for p, m in zip(pieces, masks):
                lo = len(p) * ph // n_phases
                hi = len(p) * (ph + 1) // n_phases
                if hi > lo:
                    out_p.append(p[lo:hi])
                    out_m.append(m[lo:hi])
        addrs = np.concatenate(out_p)[:n_accesses]
        mask = np.concatenate(out_m)[:n_accesses]
        return _narrow(addrs), mask.astype(bool), spec
    # Interleave the streams the way the kernels do (fine-grained mix),
    # spreading each stream uniformly over the trace regardless of its
    # weight (a rare stream is rare *everywhere*, not just early).
    all_addrs = np.concatenate(pieces)
    all_masks = np.concatenate(masks)
    positions = np.concatenate(
        [(np.arange(len(p)) + 0.5) / len(p) for p in pieces]
    )
    order = np.argsort(positions, kind="stable")
    return (
        _narrow(all_addrs[order][:n_accesses]),
        all_masks[order][:n_accesses].astype(bool),
        spec,
    )


def _narrow(addrs: np.ndarray) -> np.ndarray:
    """Addresses as int32 (half the memory; the vectorized engine works
    in int32 anyway), or int64 once an address reaches 2**31."""
    if int(addrs.max()) >= 2**31:
        return addrs.astype(np.int64)
    return addrs.astype(np.int32)
