"""Bit-exactness pins for the functional kernels' fast paths.

The vectorised ``randlc`` generation and the factor-once pseudo-app
solvers must reproduce the straight-line implementations bit for bit.
The pins below are ``float.hex`` literals of the class S results of the
straight-line code; a changed last bit fails here before it can drift
into verification margins.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.npb.bt import BlockTridiagFactor, block_tridiag_solve, line_blocks
from repro.npb.cg import _BatchedRandlc, _ScalarRandlc
from repro.npb.common import (
    DEFAULT_MULTIPLIER,
    NPBClass,
    Randlc,
    lcg_stream,
    randlc_jump_multiplier,
)
from repro.npb.ep import _SUB_BLOCK, N_ANNULI, ep_kernel
from repro.npb.params import ep_params
from repro.npb.pseudo import NCOMP, coupling_matrix
from repro.npb.sp import PentaFactor, line_coefficients, penta_solve
from repro.npb.suite import run_benchmark

MASK = (1 << 46) - 1

EP_S_SX = float.fromhex("-0x1.95fab5782f084p+11")
EP_S_SY = float.fromhex("-0x1.b2e683649f52bp+12")
EP_S_COUNTS = [6140517, 5865300, 1100361, 68546, 1648, 17, 0, 0, 0, 0]

#: Class S ``details`` of every kernel but EP.  FT's (and MG's and IS's,
#: pinned alongside) were recorded while FT still transformed out of
#: place into fresh full-grid arrays.
S_DETAILS = {
    "cg": {
        "zeta": "0x1.131c140145f4dp+3",
        "zeta_ref": "0x1.131c140145f48p+3",
        "rnorm": "0x1.081e9bdca7763p-49",
        "nnz": "0x1.3144000000000p+16",
    },
    "ft": {
        "checksum1_re": "0x1.03221a5f37745p+9",
        "checksum1_im": "0x1.f6545aff0a4d0p+8",
        "checksum_last_re": "0x1.02cfccae23c45p+9",
        "checksum_last_im": "0x1.f7c27be24b7dbp+8",
    },
    "mg": {
        "initial_rnorm": "0x1.94c583ada5b53p-6",
        "final_rnorm": "0x1.b10540cbd85cap-15",
        "reduction": "0x1.de993ffc3d2d8p+8",
    },
    "is": {
        "n_keys": "0x1.0000000000000p+16",
        "max_key": "0x1.0000000000000p+11",
        "partial_ok": "0x1.0000000000000p+0",
        "full_ok": "0x1.0000000000000p+0",
    },
    "bt": {
        "initial_error": "0x1.57f7451fbc72fp-2",
        "final_error": "0x1.ce2ffbc657a36p-7",
        "final_residual": "0x1.fdb6b6b6daf0fp-5",
        "iterations": "0x1.e000000000000p+5",
    },
    "lu": {
        "initial_error": "0x1.435fef9863026p-2",
        "final_error": "0x1.a989113694be0p-6",
        "final_residual": "0x1.0f591d58c306ap-4",
        "iterations": "0x1.9000000000000p+5",
    },
    "sp": {
        "initial_error": "0x1.574532bfc1931p-2",
        "final_error": "0x1.64ec8a17135b1p-9",
        "final_residual": "0x1.5172d87346a6ap-7",
        "iterations": "0x1.9000000000000p+6",
    },
}


def scalar_stream(seed: int, n: int) -> list[float]:
    """Straight-line ``randlc``: one multiply per value."""
    x = seed
    out = []
    for _ in range(n):
        x = (DEFAULT_MULTIPLIER * x) & MASK
        out.append(x / float(1 << 46))
    return out


def test_ep_class_s_bit_identical():
    sx, sy, counts = ep_kernel(ep_params(NPBClass.S).n_pairs)
    assert sx.hex() == EP_S_SX.hex()
    assert sy.hex() == EP_S_SY.hex()
    assert counts.tolist() == EP_S_COUNTS


def oneshot_ep(n_pairs, seed, batch):
    """EP with every batch materialised whole: one outer product per half."""
    a = DEFAULT_MULTIPLIER
    a2 = randlc_jump_multiplier(a, 2)
    state = seed
    sx = 0.0
    sy = 0.0
    counts = np.zeros(N_ANNULI, dtype=np.int64)
    remaining = n_pairs
    while remaining > 0:
        m = min(batch, remaining)
        x = lcg_stream((a * state) & MASK, a2, m).view(np.int64) * 2.0**-45 - 1.0
        y = lcg_stream((a2 * state) & MASK, a2, m).view(np.int64) * 2.0**-45 - 1.0
        state = (randlc_jump_multiplier(a, 2 * m) * state) & MASK
        t = x * x + y * y
        accepted = np.flatnonzero(t <= 1.0)
        ta = t[accepted]
        ta[ta == 0.0] = 1.0
        factor = np.sqrt(-2.0 * np.log(ta) / ta)
        gx = x[accepted] * factor
        gy = y[accepted] * factor
        sx += float(gx.sum())
        sy += float(gy.sum())
        mag = np.maximum(np.abs(gx), np.abs(gy)).astype(np.intp)
        np.minimum(mag, N_ANNULI - 1, out=mag)
        counts += np.bincount(mag, minlength=N_ANNULI)
        remaining -= m
    return sx, sy, counts


@st.composite
def ep_cases(draw):
    """Odd 46-bit seeds; at most 64 batches so ``batch=1`` stays quick."""
    batch = draw(st.integers(1, 1 << 16))
    n_pairs = draw(st.integers(1, min(3 * _SUB_BLOCK + 7, 64 * batch)))
    seed = 2 * draw(st.integers(0, (1 << 45) - 1)) + 1
    return n_pairs, seed, batch


@given(case=ep_cases())
@example(case=(3 * _SUB_BLOCK + 7, 271828183, 1 << 16))  # ragged last sub-block
@example(case=(3 * _SUB_BLOCK + 7, 271828183, 1009))  # batch below a sub-block
@example(case=(2 * _SUB_BLOCK + 5, 12345, 2 * _SUB_BLOCK + 3))  # ragged per batch
@settings(max_examples=40, deadline=None)
def test_blocked_ep_matches_oneshot_batches(case):
    sx, sy, counts = ep_kernel(*case)
    ref_sx, ref_sy, ref_counts = oneshot_ep(*case)
    assert sx.hex() == ref_sx.hex()
    assert sy.hex() == ref_sy.hex()
    assert counts.tolist() == ref_counts.tolist()


@pytest.mark.parametrize("kernel", sorted(S_DETAILS))
def test_class_s_details_bit_identical(kernel):
    result = run_benchmark(kernel, "S")
    assert result.verified
    got = {key: value.hex() for key, value in result.details.items()}
    assert got == S_DETAILS[kernel]


@given(
    calls=st.lists(st.integers(0, 1300), min_size=1, max_size=12),
    cut=st.integers(0, 12),
)
@settings(max_examples=40, deadline=None)
def test_batched_randlc_matches_scalar(calls, cut):
    """Mixed ``next()`` (0) / ``draw(k)`` calls; a reseed from ``.x`` mid-way."""
    scalar, batched = _ScalarRandlc(), _BatchedRandlc()
    for i, k in enumerate(calls):
        if i == cut:
            batched = _BatchedRandlc(batched.x)  # drops any lookahead
        if k == 0:
            assert batched.next() == scalar.next()
        else:
            assert batched.draw(k).tolist() == scalar.draw(k).tolist()
        assert batched.x == scalar.x


@given(
    seed=st.integers(1, MASK),
    n=st.integers(0, 600),
    block=st.integers(1, 300),
    first=st.integers(0, 300),
)
@settings(max_examples=60, deadline=None)
def test_generate_matches_scalar_stream(seed, n, block, first):
    """Covers ``n < block``, a ragged last lane and stream continuation."""
    rng = Randlc(seed=seed)
    head = rng.generate(first, block=block)
    tail = rng.generate(n, block=block)
    ref = scalar_stream(seed, first + n + 1)
    assert head.tolist() == ref[:first]
    assert tail.tolist() == ref[first : first + n]
    assert rng.next() == ref[first + n]


def straight_penta(e, a, b, c, f, d):
    """The one-shot elimination, multipliers recomputed inline."""
    n = len(b)
    b, c, d = b.copy(), c.copy(), d.copy()
    m1 = a[1] / b[0]
    b[1] -= m1 * c[0]
    c[1] -= m1 * f[0]
    d[1] -= m1 * d[0]
    for i in range(2, n):
        m2 = e[i] / b[i - 2]
        ai = a[i] - m2 * c[i - 2]
        d[i] -= m2 * d[i - 2]
        bi = b[i] - m2 * f[i - 2]
        m1 = ai / b[i - 1]
        b[i] = bi - m1 * c[i - 1]
        c[i] -= m1 * f[i - 1]
        d[i] -= m1 * d[i - 1]
    x = np.empty_like(d)
    x[n - 1] = d[n - 1] / b[n - 1]
    x[n - 2] = (d[n - 2] - c[n - 2] * x[n - 1]) / b[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (d[i] - c[i] * x[i + 1] - f[i] * x[i + 2]) / b[i]
    return x


def straight_block_thomas(a, b, c, d):
    """The one-shot block Thomas algorithm, blocks eliminated inline."""
    n = len(b)
    c_prime = np.empty_like(c)
    d_prime = np.empty_like(d)
    c_prime[0] = np.linalg.solve(b[0], c[0])
    d_prime[0] = np.linalg.solve(b[0], d[0].T).T
    for i in range(1, n):
        denom = b[i] - a[i] @ c_prime[i - 1]
        c_prime[i] = np.linalg.solve(denom, c[i])
        rhs = d[i] - d_prime[i - 1] @ a[i].T
        d_prime[i] = np.linalg.solve(denom, rhs.T).T
    x = np.empty_like(d)
    x[n - 1] = d_prime[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = d_prime[i] - x[i + 1] @ c_prime[i].T
    return x


@pytest.mark.parametrize("axis", range(3))
def test_factored_penta_solve_matches_penta_solve(axis):
    """Components stacked as bands ``(n, NCOMP, 1)`` solve bit-identically."""
    n, h, dt = 9, 1.0 / 9, 0.05
    k = coupling_matrix()
    bands = [line_coefficients(n, h, dt, axis, k[c, c]) for c in range(NCOMP)]
    rhs = np.random.default_rng(axis).normal(size=(n, NCOMP, 13))
    stacked = [np.stack(band, axis=1)[:, :, None] for band in zip(*bands)]
    factor = PentaFactor(*stacked)
    for _ in range(2):  # a factor is reusable: solves do not mutate it
        batched = factor.solve(rhs)
        for c in range(NCOMP):
            ref = penta_solve(*bands[c], rhs[:, c, :])
            assert np.array_equal(batched[:, c, :], ref)
            assert np.array_equal(ref, straight_penta(*bands[c], rhs[:, c, :]))


@pytest.mark.parametrize("axis", range(3))
def test_factored_block_solve_matches_block_tridiag_solve(axis):
    n = 7
    a, b, c = line_blocks(n, 1.0 / n, 0.05, axis, coupling_matrix())
    rhs = np.random.default_rng(10 + axis).normal(size=(n, 11, NCOMP))
    factor = BlockTridiagFactor(a, b, c)
    ref = block_tridiag_solve(a, b, c, rhs)
    assert np.array_equal(ref, straight_block_thomas(a, b, c, rhs))
    for _ in range(2):
        assert np.array_equal(factor.solve(rhs), ref)
