"""SP -- the Scalar Pentadiagonal pseudo-application (functional).

The diagonalised Beam-Warming variant: where BT solves 5x5 block
tridiagonal systems, SP decouples the components (here via the coupling
matrix's diagonal, standing in for the eigenvalue decomposition of the
flux Jacobian) and adds fourth-order artificial dissipation, so each
direction yields independent *scalar pentadiagonal* systems solved by
two-stage Gaussian elimination -- sequential along the line, vectorised
across every line and component at once.

SP has the *highest* memory-stall profile of the three pseudo-apps
(paper Table 1: 20% cache / 21% DDR): five scalar sweeps per direction
stream the grid repeatedly with almost no block arithmetic to hide them.
"""

from __future__ import annotations

import numpy as np

from .common import BenchmarkResult, NPBClass, Timer
from .params import sp_params
from .pseudo import (
    NCOMP,
    VELOCITY,
    VISCOSITY,
    ModelProblem,
    adi_step,
    make_result,
    march_to_steady_state,
)

__all__ = ["run_sp", "penta_solve", "PentaFactor", "sp_step", "line_coefficients"]

#: Fourth-order dissipation strength (the NPB smoothing constant role).
DISSIPATION = 0.05


def line_coefficients(
    n: int, h: float, dt: float, axis: int, k_diag: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pentadiagonal coefficients of one direction's implicit factor.

    Returns ``(e, a, b, c, f)`` -- the i-2, i-1, diagonal, i+1, i+2 bands,
    each of shape ``(n,)`` -- for
    ``I + dt (c_a d/dx - nu d2/dx2 + k/3) + dt eps h^-? d4/dx4``-style
    discretisation (dissipation scaled to be grid-independent).
    """
    conv = VELOCITY[axis] * dt / (2 * h)
    diff = VISCOSITY * dt / h**2
    eps = DISSIPATION * dt
    e = np.full(n, eps)
    a = np.full(n, -conv - diff - 4.0 * eps)
    b = np.full(n, 1.0 + 2.0 * diff + dt * k_diag / 3.0 + 6.0 * eps)
    c = np.full(n, conv - diff - 4.0 * eps)
    f = np.full(n, eps)
    # Dirichlet-style closure for the correction system.
    e[:2] = 0.0
    a[0] = 0.0
    c[-1] = 0.0
    f[-2:] = 0.0
    return e, a, b, c, f


class PentaFactor:
    """Forward-elimination factors of pentadiagonal systems.

    The elimination multipliers and the reduced diagonal and upper band
    depend only on the bands, so they are computed once and every solve
    then sweeps only its right-hand side.  Band arrays have shape
    ``(n,)`` or ``(n, *batch)``; row ``i`` of each broadcasts against row
    ``i`` of the right-hand side.
    """

    __slots__ = ("m1", "m2", "b", "c", "f")

    def __init__(self, e, a, b, c, f) -> None:
        n = len(b)
        if n < 3:
            raise ValueError("need at least three points along the line")
        b = np.array(b, dtype=np.float64)
        c = np.array(c, dtype=np.float64)
        f = self.f = np.array(f, dtype=np.float64)
        self.m1 = np.zeros_like(b)
        self.m2 = np.zeros_like(b)
        # i = 1: eliminate the single sub-diagonal entry.
        m1 = self.m1[1] = a[1] / b[0]
        b[1] -= m1 * c[0]
        c[1] -= m1 * f[0]
        for i in range(2, n):
            # Stage 1: eliminate e[i] against row i-2.
            m2 = self.m2[i] = e[i] / b[i - 2]
            ai = a[i] - m2 * c[i - 2]
            bi = b[i] - m2 * f[i - 2]
            # Stage 2: eliminate the updated a[i] against row i-1.
            m1 = self.m1[i] = ai / b[i - 1]
            b[i] = bi - m1 * c[i - 1]
            c[i] -= m1 * f[i - 1]
        self.b = b
        self.c = c

    def solve(self, d: np.ndarray) -> np.ndarray:
        """Sweep the right-hand sides ``d`` (row ``i`` is ``d[i]``)."""
        m1, m2, b, c, f = self.m1, self.m2, self.b, self.c, self.f
        n = len(b)
        d = np.array(d, dtype=np.float64)
        d[1] -= m1[1] * d[0]
        for i in range(2, n):
            d[i] -= m2[i] * d[i - 2]
            d[i] -= m1[i] * d[i - 1]

        x = np.empty_like(d)
        x[n - 1] = d[n - 1] / b[n - 1]
        x[n - 2] = (d[n - 2] - c[n - 2] * x[n - 1]) / b[n - 2]
        for i in range(n - 3, -1, -1):
            x[i] = (d[i] - c[i] * x[i + 1] - f[i] * x[i + 2]) / b[i]
        return x


def penta_solve(
    e: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    f: np.ndarray,
    d: np.ndarray,
) -> np.ndarray:
    """Solve a pentadiagonal system for many right-hand sides at once.

    Bands are ``(n,)``; ``d`` is ``(n, m)`` with ``m`` independent lines.
    Two-stage elimination without pivoting (the systems are strongly
    diagonally dominant by construction), then three-term back
    substitution -- the exact control flow of NPB SP's ``x_solve``.
    """
    return PentaFactor(e, a, b, c, f).solve(d)


def _factor_directions(
    problem: ModelProblem, dt: float
) -> tuple[PentaFactor, PentaFactor, PentaFactor]:
    """One factor per direction, the components stacked as ``(n, NCOMP, 1)``."""
    n = problem.n
    k_diag = np.diagonal(problem.k_matrix)
    factors = []
    for axis in range(3):
        per_comp = [
            line_coefficients(n, problem.h, dt, axis, float(k)) for k in k_diag
        ]
        bands = [np.stack(band, axis=1)[:, :, None] for band in zip(*per_comp)]
        factors.append(PentaFactor(*bands))
    return tuple(factors)


def _solve_direction(
    factor: PentaFactor, rhs: np.ndarray, axis: int
) -> np.ndarray:
    """Scalar pentadiagonal solves for every component along ``axis``.

    ``rhs`` has field shape ``(NCOMP, n, n, n)``; the lines are laid out
    as ``(n, NCOMP, n*n)`` so all components sweep together.
    """
    n = rhs.shape[1]
    lines = np.moveaxis(rhs, axis + 1, 0).reshape(n, NCOMP, n * n)
    solved = factor.solve(lines).reshape(n, NCOMP, n, n)
    return np.moveaxis(solved, 0, axis + 1)


def sp_step(
    problem: ModelProblem, _u: np.ndarray, residual: np.ndarray, dt: float
) -> np.ndarray:
    """One diagonalised ADI update: three scalar pentadiagonal sweeps."""
    step = adi_step(_factor_directions(problem, dt), _solve_direction)
    return step(problem, _u, residual, dt)


def run_sp(npb_class: NPBClass | str = NPBClass.S) -> BenchmarkResult:
    """Run SP functionally at ``npb_class`` and verify convergence."""
    if isinstance(npb_class, str):
        npb_class = NPBClass(npb_class)
    p = sp_params(npb_class)
    problem = ModelProblem(p.grid)
    dt = 0.5 * problem.h

    with Timer() as t:
        step = adi_step(_factor_directions(problem, dt), _solve_direction)
        _u, errors, residuals = march_to_steady_state(
            problem, step, p.iterations, dt
        )
    return make_result("sp", npb_class, p, t.elapsed_s, errors, residuals)
