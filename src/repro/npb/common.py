"""Shared NPB infrastructure: the ``randlc`` generator, classes, results.

NPB benchmarks draw every pseudo-random input from the same linear
congruential generator (``randlc`` in the Fortran sources):

    x_{k+1} = a * x_k  mod 2^46,      a = 5^13,  x_0 = 314159265

returning ``x / 2^46`` in (0, 1).  Because 2^46 divides 2^64, the update
is exact in wrapping 64-bit unsigned arithmetic, which lets us evaluate
the closed form ``x_k = a^k x_0 mod 2^46`` over whole NumPy arrays (and
jump ahead in O(log n) by repeated squaring of the multiplier -- the
same trick NPB's EP uses to parallelise generation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro import obs

__all__ = [
    "MASK46",
    "DEFAULT_MULTIPLIER",
    "DEFAULT_SEED",
    "NPBClass",
    "Randlc",
    "randlc_jump_multiplier",
    "lcg_stream",
    "BenchmarkResult",
    "Timer",
]

MASK46 = np.uint64((1 << 46) - 1)
TWO_POW_46 = float(1 << 46)
DEFAULT_MULTIPLIER = 5**13  # 1220703125
DEFAULT_SEED = 314159265


class NPBClass(enum.Enum):
    """NPB problem classes in increasing size.

    S is the sample (seconds on one core), W the workstation size; A < B < C
    are the full benchmark sizes.  The paper uses B for the small-board
    comparison (Table 2) and C everywhere else.
    """

    S = "S"
    W = "W"
    A = "A"
    B = "B"
    C = "C"

    @property
    def rank(self) -> int:
        return "SWABC".index(self.value)

    def __lt__(self, other: "NPBClass") -> bool:
        return self.rank < other.rank


def randlc_jump_multiplier(a: int, k: int) -> int:
    """``a^k mod 2^46`` by binary exponentiation.

    Advancing the stream by ``k`` steps is one multiply by this constant,
    which is how blocks of the stream are handed to different (simulated
    or real) workers without serialising generation.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    result = 1
    base = a & ((1 << 46) - 1)
    while k:
        if k & 1:
            result = (result * base) & ((1 << 46) - 1)
        base = (base * base) & ((1 << 46) - 1)
        k >>= 1
    return result


class Randlc:
    """Stateful scalar/vector NPB random-number generator.

    >>> rng = Randlc()
    >>> u = rng.next()          # one uniform in (0, 1)
    >>> block = rng.generate(1000)   # the next 1000, vectorised
    """

    __slots__ = ("_x", "_a")

    def __init__(self, seed: int = DEFAULT_SEED, a: int = DEFAULT_MULTIPLIER) -> None:
        if not 0 < seed < (1 << 46):
            raise ValueError("seed must be in (0, 2^46)")
        self._x = np.uint64(seed)
        self._a = np.uint64(a & ((1 << 46) - 1))

    @property
    def state(self) -> int:
        return int(self._x)

    def next(self) -> float:
        """Advance one step, returning a uniform float in (0, 1)."""
        # Python-int arithmetic: numpy scalars warn on uint64 wraparound.
        x = (int(self._a) * int(self._x)) & ((1 << 46) - 1)
        self._x = np.uint64(x)
        return x / TWO_POW_46

    def skip(self, k: int) -> None:
        """Jump the stream forward ``k`` steps in O(log k)."""
        jump = randlc_jump_multiplier(int(self._a), k)
        # Scalar path in Python ints: numpy scalars warn on uint64 wrap.
        self._x = np.uint64((jump * int(self._x)) & ((1 << 46) - 1))

    def generate(self, n: int, block: int = 4096) -> np.ndarray:
        """The next ``n`` uniforms as a float64 array.

        Closed form: value ``k`` of the stream is ``x * a^(k+1)``.  Lanes
        of ``block`` values start from jump-ahead seeds and share one
        table of in-lane powers, so the whole draw is one ``uint64``
        outer product -- no sequential step loop at all.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if block < 1:
            raise ValueError("block must be >= 1")
        a = int(self._a)
        start = (a * int(self._x)) & ((1 << 46) - 1)
        flat = lcg_stream(start, a, n, block).astype(np.float64)
        self.skip(n)
        flat /= TWO_POW_46
        return flat


def _lcg_powers(base: int, count: int) -> np.ndarray:
    """``base^0 .. base^(count-1) mod 2^46`` as ``uint64``, by doubling.

    Each doubling multiplies the filled prefix by ``base^filled``: exact
    in wrapping 64-bit arithmetic because 2^46 divides 2^64.
    """
    out = np.empty(count, dtype=np.uint64)
    if count:
        out[0] = 1
    filled = 1
    while filled < count:
        width = min(filled, count - filled)
        jump = np.uint64(randlc_jump_multiplier(base, filled))
        chunk = out[filled : filled + width]
        np.multiply(out[:width], jump, out=chunk)
        chunk &= MASK46
        filled += width
    return out


def lcg_stream(start: int, mult: int, n: int, block: int = 4096) -> np.ndarray:
    """``start * mult^k mod 2^46`` for ``k = 0 .. n-1`` as ``uint64``.

    Lane ``i`` covers ``k = i*block .. (i+1)*block - 1``: its seed is
    ``start * (mult^block)^i`` and its values are that seed times the
    shared in-lane powers ``mult^0 .. mult^(block-1)``.
    """
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    width = min(block, n)
    n_lanes = -(-n // width)
    seeds = _lcg_powers(randlc_jump_multiplier(mult, width), n_lanes)
    seeds *= np.uint64(start)
    seeds &= MASK46
    out = np.multiply.outer(seeds, _lcg_powers(mult, width))
    out &= MASK46
    return out.reshape(-1)[:n]


@dataclass
class BenchmarkResult:
    """Outcome of one *functional* NPB run on the host interpreter.

    ``mops`` here is host-measured (NumPy on this machine) and is reported
    by the examples for orientation only; paper-table regeneration uses the
    modelled rates from :mod:`repro.core`.
    """

    name: str
    npb_class: NPBClass
    verified: bool
    time_s: float
    total_mops: float
    details: dict[str, float] = field(default_factory=dict)

    @property
    def mops_per_s(self) -> float:
        if self.time_s <= 0:
            return float("inf")
        return self.total_mops / self.time_s

    def summary(self) -> str:
        status = "VERIFIED" if self.verified else "FAILED VERIFICATION"
        return (
            f"{self.name.upper()} class {self.npb_class.value}: {status}, "
            f"{self.time_s:.3f} s, {self.mops_per_s:.1f} Mop/s (host)"
        )


class Timer:
    """Minimal wall-clock context manager for the functional runs.

    Timing goes through :func:`repro.obs.host_timer`, the package's one
    sanctioned wall-clock site, so functional-run intervals land in the
    telemetry report's ``timings`` section when a recorder is installed.
    """

    def __init__(self) -> None:
        self.elapsed_s = 0.0

    def __enter__(self) -> "Timer":
        self._timer = obs.host_timer("npb.functional").__enter__()
        return self

    def __exit__(self, *exc: object) -> None:
        self._timer.__exit__(*exc)
        self.elapsed_s = self._timer.elapsed_s
