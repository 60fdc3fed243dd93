"""EP -- the Embarrassingly Parallel benchmark (functional).

Generates ``2^m`` pairs of uniforms with ``randlc``, maps them to the unit
square ``(-1, 1)^2``, applies the Marsaglia polar method's acceptance test
``t = x^2 + y^2 <= 1`` and, for accepted pairs, forms the Gaussian
deviates ``x * sqrt(-2 ln t / t)``; it accumulates the sums of the
deviates and counts them by the annulus ``max(|Xk|, |Yk|)`` falls in.

This is the NPB compute-bound reference: no data reuse, no communication,
a fixed operation count of ``2^(m+1)``.  Verification checks the
statistical invariants of the annulus counts and compares the sums
``(sx, sy)`` against the official NPB verification values for classes S
and A (other classes pin their first computed value; see ``_GOLDEN``).
The kernel is bit-deterministic given the shared ``randlc`` stream (see
DESIGN.md section 6).
"""

from __future__ import annotations

import threading

import numpy as np

from .common import (
    DEFAULT_MULTIPLIER,
    BenchmarkResult,
    NPBClass,
    Timer,
    lcg_stream,
    randlc_jump_multiplier,
)
from .params import ep_params

__all__ = ["run_ep", "ep_kernel"]

#: Number of annuli the accepted deviates are binned into.
N_ANNULI = 10

#: EP consumes the stream starting from x0 advanced once with A=5^13
#: (matching the reference code's seed handling closely enough to be
#: deterministic; golden values below are pinned to this choice).
_EP_SEED = 271828183

#: Golden (sx, sy) per class.  S and A are the *official NPB verification
#: values* -- this implementation reproduces them to ~13 significant
#: digits because the randlc stream and the polar method are followed
#: exactly.  Classes without an entry verify on statistical invariants
#: only (and pin their first computed value for the session).
_GOLDEN: dict[str, tuple[float, float]] = {
    "S": (-3.247834652034740e3, -6.958407078382297e3),
    "A": (-4.295875165629892e3, -1.580732573678431e4),
}
_golden_lock = threading.Lock()

_MASK = (1 << 46) - 1


def ep_kernel(n_pairs: int, seed: int = _EP_SEED, batch: int = 1 << 18):
    """Core EP computation over ``n_pairs`` candidate pairs.

    Returns ``(sx, sy, counts)`` where ``counts[l]`` is the number of
    accepted pairs whose deviate magnitude falls in annulus ``l``.

    Batched so the working set stays cache-sized (the real EP also works
    in blocks of 2^16); each batch draws ``2 * batch`` uniforms.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    a = DEFAULT_MULTIPLIER
    a2 = randlc_jump_multiplier(a, 2)
    state = seed
    sx = 0.0
    sy = 0.0
    counts = np.zeros(N_ANNULI, dtype=np.int64)
    remaining = n_pairs
    while remaining > 0:
        m = min(batch, remaining)
        # Pair k is stream values 2k and 2k+1 -- ``state * a^(2k+1)`` and
        # ``state * a^(2k+2)`` -- so each half is its own contiguous
        # stream with multiplier a^2.
        x = _to_unit_square(lcg_stream((a * state) & _MASK, a2, m))
        y = _to_unit_square(lcg_stream((a2 * state) & _MASK, a2, m))
        state = (randlc_jump_multiplier(a, 2 * m) * state) & _MASK
        t = x * x + y * y
        accepted = np.flatnonzero(t <= 1.0)
        ta = t[accepted]
        # Guard t == 0 (cannot occur for randlc output, but keeps the
        # kernel total-function for arbitrary inputs).
        ta[ta == 0.0] = 1.0
        factor = np.sqrt(-2.0 * np.log(ta) / ta)
        gx = x[accepted] * factor
        gy = y[accepted] * factor
        # One sum per batch: the batch boundaries fix the bits of sx, sy.
        sx += float(gx.sum())
        sy += float(gy.sum())
        mag = np.maximum(np.abs(gx), np.abs(gy)).astype(np.intp)
        np.minimum(mag, N_ANNULI - 1, out=mag)
        counts += np.bincount(mag, minlength=N_ANNULI)
        remaining -= m
    return sx, sy, counts


def _to_unit_square(raw: np.ndarray) -> np.ndarray:
    """``2 * (raw / 2^46) - 1`` for 46-bit stream states.

    Scaling by 2^-45 is exact, so this is bit-identical to mapping the
    uniforms first; the states fit ``int64``, whose float conversion is
    much faster than ``uint64``'s.
    """
    out = raw.view(np.int64).astype(np.float64)
    out *= 2.0**-45
    out -= 1.0
    return out


def run_ep(npb_class: NPBClass | str = NPBClass.S) -> BenchmarkResult:
    """Run EP functionally at ``npb_class`` and verify.

    Verification: the Gaussian sums must match the golden values to 1e-9
    relative.  S and A ship the official NPB values; the first run of any
    other class pins its own result for the process.
    """
    if isinstance(npb_class, str):
        npb_class = NPBClass(npb_class)
    p = ep_params(npb_class)
    with Timer() as t:
        sx, sy, counts = ep_kernel(p.n_pairs)

    verified = _verify(npb_class, sx, sy, counts, p.n_pairs)
    return BenchmarkResult(
        name="ep",
        npb_class=npb_class,
        verified=verified,
        time_s=t.elapsed_s,
        total_mops=p.total_mops,
        details={
            "sx": sx,
            "sy": sy,
            "accepted": float(counts.sum()),
            "acceptance_rate": float(counts.sum()) / p.n_pairs,
        },
    )


def _verify(
    npb_class: NPBClass, sx: float, sy: float, counts: np.ndarray, n_pairs: int
) -> bool:
    # Statistical invariants hold for any class: the polar method accepts
    # with probability pi/4 and the deviate means are ~0.
    acceptance = counts.sum() / n_pairs
    if abs(acceptance - np.pi / 4.0) > 0.01:
        return False
    accepted = max(int(counts.sum()), 1)
    if abs(sx / accepted) > 0.01 or abs(sy / accepted) > 0.01:
        return False
    # Counts must be monotone decreasing across annuli (Gaussian tails).
    nonzero = counts[counts > 0]
    if not np.all(np.diff(counts[: len(nonzero)]) <= 0):
        return False
    # Classes without a pinned value adopt the first computed one for the
    # session; the pin (and the compare against it) happen under a lock so
    # parallel sweep workers agree on a single golden pair.
    with _golden_lock:
        gx, gy = _GOLDEN.setdefault(npb_class.value, (sx, sy))
    return (
        abs(sx - gx) <= 1e-9 * abs(gx) and abs(sy - gy) <= 1e-9 * abs(gy)
    )
