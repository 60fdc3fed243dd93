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

from repro._two_threads import run_in_order

from .common import (
    DEFAULT_MULTIPLIER,
    MASK46,
    BenchmarkResult,
    NPBClass,
    Timer,
    _lcg_powers,
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

#: Pairs per sub-block: every array operation inside a batch works on
#: at most this many pairs, so the temporaries stay cache-sized (the
#: reference EP works in blocks of 2^16 pairs).  2^15 is where the
#: two-thread split pays inside the 6 MiB class S bound of
#: ``tests/npb/test_working_set.py`` (130 ms split, 172 ms serial): at
#: 2^14 the GIL hand-offs around NumPy calls of a few microseconds eat
#: the second core's gain (172 ms split, 179 ms serial); at 2^16 the
#: split reads 121 ms but the per-thread scratch lifts the traced peak
#: to 6.85 MiB.
_SUB_BLOCK = 1 << 15

#: Stream values per lane: a sub-block is generated as its lanes' seeds
#: times one shared table of this many in-lane powers.
_LANE = 1 << 12

#: ``2^52`` as a double's bits: OR-ing a 46-bit integer ``s`` into its
#: mantissa gives the double ``2^52 + s``, so a state becomes a float in
#: place, exactly, with no conversion buffer.
_EXP52 = np.uint64(0x4330000000000000)


def ep_kernel(n_pairs: int, seed: int = _EP_SEED, batch: int = 1 << 18):
    """Core EP computation over ``n_pairs`` candidate pairs.

    Returns ``(sx, sy, counts)`` where ``counts[l]`` is the number of
    accepted pairs whose deviate magnitude falls in annulus ``l``.

    The accepted deviates of a batch of ``batch`` pairs are gathered into
    one buffer and summed once: the batch boundaries fix the bits of
    ``sx`` and ``sy``.  A batch is sampled in sub-blocks of
    ``_SUB_BLOCK`` pairs split into two halves, which
    :func:`repro._two_threads.run_in_order` runs on the calling thread
    and one ``ep-helper`` thread where two CPUs are usable.  The front
    half fills the batch buffer leftwards from the split point, last
    sub-block first, and the back half rightwards, so the batch's
    accepted deviates end up contiguous and in pair order whichever
    thread ran which half: the result equals a serial run's bits.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    a = DEFAULT_MULTIPLIER
    a2 = randlc_jump_multiplier(a, 2)
    width = min(_SUB_BLOCK, batch, n_pairs)
    lane = min(_LANE, width)
    # Pair k is stream values 2k and 2k+1 -- ``state * a^(2k+1)`` and
    # ``state * a^(2k+2)`` -- so the x values and the y values are each
    # a contiguous stream with multiplier a^2: lane i of a batch starts
    # at the batch's seed times a^(2 * lane * i), and its values are
    # that seed times the shared in-lane powers.
    powers = _lcg_powers(a2, lane)
    per_batch = -(-min(batch, n_pairs) // lane)
    lane_jumps = _lcg_powers(randlc_jump_multiplier(a2, lane), per_batch)
    # Row 0 holds x (then gx), row 1 y (then gy); whole lanes are
    # generated, so the row is padded to a lane multiple.  Both halves'
    # scratch is allocated here: a helper thread's buffers come from its
    # own malloc arena (allocated per half, they raised the class S
    # suite's max RSS from 49.4 to 50.0-50.7 MB).
    gxy = np.empty((2, per_batch * lane))
    scratch = (np.empty((2, width)), np.empty((2, width)))

    def fill(half):
        return _fill_half(gxy, powers, lane, *half)

    state = seed
    sx = 0.0
    sy = 0.0
    counts = np.zeros(N_ANNULI, dtype=np.int64)
    remaining = n_pairs
    while remaining > 0:
        m = min(batch, remaining)
        seeds = np.array([[(a * state) & _MASK], [(a2 * state) & _MASK]], np.uint64)
        seeds = np.multiply(lane_jumps[: -(-m // lane)], seeds)
        seeds &= MASK46
        blocks = [(lo, min(width, m - lo)) for lo in range(0, m, width)]
        split = len(blocks) // 2
        mid = blocks[split][0]
        halves = [(seeds, mid, blocks[split:], 1, scratch[0])]
        if split:
            halves.append((seeds, mid, blocks[split - 1 :: -1], -1, scratch[1]))
        ends = [mid]
        for end, half_counts in run_in_order(fill, halves, "ep-helper"):
            ends.append(end)
            counts += half_counts
        # One sum per batch: the batch boundaries fix the bits of sx, sy.
        lo, hi = min(ends), max(ends)
        sx += float(gxy[0, lo:hi].sum())
        sy += float(gxy[1, lo:hi].sum())
        state = (randlc_jump_multiplier(a, 2 * m) * state) & _MASK
        remaining -= m
    return sx, sy, counts


def _fill_half(
    gxy: np.ndarray,
    powers: np.ndarray,
    lane: int,
    seeds: np.ndarray,
    mid: int,
    blocks: list[tuple[int, int]],
    step: int,
    scratch: np.ndarray,
) -> tuple[int, np.ndarray]:
    """Sample ``blocks`` and pack their accepted deviates against ``mid``.

    ``step`` is 1 to fill ``gxy`` rightwards from column ``mid`` (blocks
    in pair order) or -1 to fill it leftwards (blocks in reverse order);
    returns the column where the packed span ends and the annulus
    counts.  Each sub-block's x/y are generated in place in the free
    columns next to the packed span: those columns lie inside the pairs
    this half covers, which are never fewer than the deviates already
    packed.  ``seeds`` holds the batch's x and y lane seeds and
    ``scratch`` is this half's ``(2, width)`` work buffer.
    """
    t, f = scratch
    counts = np.zeros(N_ANNULI, dtype=np.int64)
    pos = mid
    for lo, w in blocks:
        n_lanes = -(-w // lane)
        c0 = pos if step > 0 else pos - w
        xy = gxy[:, c0 : c0 + n_lanes * lane]
        raw = xy.view(np.uint64)
        np.multiply(
            seeds[:, lo // lane : lo // lane + n_lanes, None],
            powers,
            out=raw.reshape(2, n_lanes, lane),
        )
        # 2 * (s / 2^46) - 1 = ((2^52 + s) - (2^52 + 2^45)) * 2^-45, every
        # step exact: bit-identical to converting s and mapping it.
        raw &= MASK46
        raw |= _EXP52
        xy -= 2.0**52 + 2.0**45
        xy *= 2.0**-45
        xy = xy[:, :w]
        x, y = xy
        squares = np.multiply(xy, xy, out=scratch[:, :w])
        ts = np.add(squares[0], squares[1], out=t[:w])
        accepted = np.flatnonzero(np.less_equal(ts, 1.0, out=f.view(np.bool_)[:w]))
        k = len(accepted)
        # The indices are in range by construction; mode="clip" skips
        # the buffered copy that the default mode makes for ``out=``.
        ta = np.take(ts, accepted, out=f[:k], mode="clip")
        # Guard t == 0 (cannot occur for odd seeds, but keeps the kernel
        # total-function for arbitrary inputs).
        if not ta.all():
            ta[ta == 0.0] = 1.0
        factor = np.log(ta, out=t[:k])
        factor *= -2.0
        factor /= ta
        np.sqrt(factor, out=factor)
        # The deviates go to the k columns next to the filled span, where
        # x/y are no longer needed once gathered.
        d0 = pos if step > 0 else pos - k
        g = gxy[:, d0 : d0 + k]
        np.multiply(np.take(x, accepted, out=f[:k], mode="clip"), factor, out=g[0])
        np.multiply(np.take(y, accepted, out=f[:k], mode="clip"), factor, out=g[1])
        del accepted  # before the next sub-block's indices are built
        mag = np.abs(g, out=scratch[:, :k])
        np.maximum(mag[0], mag[1], out=mag[0])
        annulus = f.view(np.intp)[:k]
        np.copyto(annulus, mag[0], casting="unsafe")
        np.minimum(annulus, N_ANNULI - 1, out=annulus)
        counts += np.bincount(annulus, minlength=N_ANNULI)
        pos += step * k
    return pos, counts


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
    # Counts must not increase across annuli (Gaussian tails): a non-zero
    # annulus after an empty one fails too.
    if np.any(np.diff(counts) > 0):
        return False
    # Classes without a pinned value adopt the first computed one for the
    # session; the pin (and the compare against it) happen under a lock so
    # parallel sweep workers agree on a single golden pair.
    with _golden_lock:
        gx, gy = _GOLDEN.setdefault(npb_class.value, (sx, sy))
    return (
        abs(sx - gx) <= 1e-9 * abs(gx) and abs(sy - gy) <= 1e-9 * abs(gy)
    )
