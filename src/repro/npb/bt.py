"""BT -- the Block Tridiagonal pseudo-application (functional).

Approximately factorises the implicit operator of the model system
(:mod:`repro.npb.pseudo`) Beam-Warming style into three per-direction
5x5 *block tridiagonal* systems::

    (I + dt Lx)(I + dt Ly)(I + dt Lz) dU = dt (F - L(U))

and solves each with the batched block Thomas algorithm -- forward
elimination and back-substitution over 5x5 blocks, vectorised across all
lines of the grid (NumPy batched ``solve``), sequential along the solve
direction exactly like the reference ``x_solve``/``y_solve``/``z_solve``.

BT has the *lowest* memory-stall profile of the three pseudo-apps
(paper Table 1: 8% cache / 9% DDR): the O(5^3) block arithmetic per point
amortises the grid traffic, which the BT workload signature mirrors.
"""

from __future__ import annotations

import numpy as np

from .common import BenchmarkResult, NPBClass, Timer
from .params import bt_params
from .pseudo import (
    NCOMP,
    VELOCITY,
    VISCOSITY,
    ModelProblem,
    adi_step,
    make_result,
    march_to_steady_state,
)

__all__ = ["run_bt", "block_tridiag_solve", "BlockTridiagFactor", "bt_step", "line_blocks"]


def line_blocks(
    n: int, h: float, dt: float, axis: int, k_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block coefficients (A, B, C) of ``I + dt * L_axis`` along one line.

    ``L_axis u = c_a d/dx u - nu d2/dx2 u + (K/3) u`` with central
    differences; the coupling matrix is split evenly over the three
    factors.  Returns arrays of shape ``(n, 5, 5)`` (constant along the
    line here, but the solver accepts per-point blocks like the real BT).
    """
    c = VELOCITY[axis]
    eye = np.eye(NCOMP)
    sub = dt * (-c / (2 * h) - VISCOSITY / h**2) * eye
    diag = eye + dt * (2 * VISCOSITY / h**2 * eye + k_matrix / 3.0)
    sup = dt * (c / (2 * h) - VISCOSITY / h**2) * eye
    a = np.broadcast_to(sub, (n, NCOMP, NCOMP)).copy()
    b = np.broadcast_to(diag, (n, NCOMP, NCOMP)).copy()
    cc = np.broadcast_to(sup, (n, NCOMP, NCOMP)).copy()
    # Dirichlet-style ends for the correction (the factorisation is a
    # preconditioner; the outer march judges convergence).
    a[0] = 0.0
    cc[-1] = 0.0
    return a, b, cc


class BlockTridiagFactor:
    """Forward-elimination factors of a block tridiagonal system.

    ``c_prime`` and the eliminated diagonal blocks ``denom`` depend only
    on the blocks, so they are computed once; each solve then runs only
    the right-hand-side sweep, with the same ``np.linalg.solve`` calls on
    the same matrices as the one-shot block Thomas algorithm.
    """

    __slots__ = ("a", "denom", "c_prime")

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        n = len(b)
        if n < 2:
            raise ValueError("need at least two points along the solve direction")
        self.a = a
        self.denom = np.empty_like(b)
        self.c_prime = np.empty_like(c)
        self.denom[0] = b[0]
        self.c_prime[0] = np.linalg.solve(b[0], c[0])
        for i in range(1, n):
            self.denom[i] = b[i] - a[i] @ self.c_prime[i - 1]
            self.c_prime[i] = np.linalg.solve(self.denom[i], c[i])

    def solve(self, d: np.ndarray) -> np.ndarray:
        """Solve for right-hand sides ``d`` of shape ``(n, m, k)``."""
        a, denom, c_prime = self.a, self.denom, self.c_prime
        n = len(denom)
        d_prime = np.empty_like(d)
        d_prime[0] = np.linalg.solve(denom[0], d[0].T).T
        for i in range(1, n):
            rhs = d[i] - d_prime[i - 1] @ a[i].T
            d_prime[i] = np.linalg.solve(denom[i], rhs.T).T

        x = np.empty_like(d)
        x[n - 1] = d_prime[n - 1]
        for i in range(n - 2, -1, -1):
            x[i] = d_prime[i] - x[i + 1] @ c_prime[i].T
        return x


def block_tridiag_solve(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Batched block Thomas algorithm.

    Parameters
    ----------
    a, b, c:
        Sub-, main- and super-diagonal blocks, shape ``(n, 5, 5)``.
    d:
        Right-hand sides, shape ``(n, m, 5)`` -- ``m`` independent lines
        solved at once (the vectorised equivalent of BT's line loops).

    Returns the solutions with the same shape as ``d``.
    """
    n, _m, k = d.shape
    if a.shape != (n, k, k) or b.shape != (n, k, k) or c.shape != (n, k, k):
        raise ValueError("block shapes do not match the right-hand side")
    return BlockTridiagFactor(a, b, c).solve(d)


def _factor_directions(
    problem: ModelProblem, dt: float
) -> tuple[BlockTridiagFactor, BlockTridiagFactor, BlockTridiagFactor]:
    """One block factorisation of ``I + dt L_axis`` per direction."""
    return tuple(
        BlockTridiagFactor(
            *line_blocks(problem.n, problem.h, dt, axis, problem.k_matrix)
        )
        for axis in range(3)
    )


def _solve_direction(
    factor: BlockTridiagFactor, rhs: np.ndarray, axis: int
) -> np.ndarray:
    """Solve ``(I + dt L_axis) x = rhs`` for every line along ``axis``.

    ``rhs`` has field shape ``(NCOMP, n, n, n)``.
    """
    n = rhs.shape[1]
    # Bring the solve axis first and components last: (n, m, 5).
    moved = np.moveaxis(rhs, axis + 1, 1)  # (NCOMP, n, n, n)
    lines = np.moveaxis(moved, 0, -1).reshape(n, n * n, NCOMP)
    solved = factor.solve(lines)
    solved = np.moveaxis(solved.reshape(n, n, n, NCOMP), -1, 0)
    return np.moveaxis(solved, 1, axis + 1)


def bt_step(
    problem: ModelProblem, _u: np.ndarray, residual: np.ndarray, dt: float
) -> np.ndarray:
    """One ADI update: three factored block-tridiagonal sweeps."""
    step = adi_step(_factor_directions(problem, dt), _solve_direction)
    return step(problem, _u, residual, dt)


def run_bt(npb_class: NPBClass | str = NPBClass.S) -> BenchmarkResult:
    """Run BT functionally at ``npb_class`` and verify convergence."""
    if isinstance(npb_class, str):
        npb_class = NPBClass(npb_class)
    p = bt_params(npb_class)
    problem = ModelProblem(p.grid)
    dt = 0.5 * problem.h  # CFL-safe for the model coefficients

    with Timer() as t:
        step = adi_step(_factor_directions(problem, dt), _solve_direction)
        _u, errors, residuals = march_to_steady_state(
            problem, step, p.iterations, dt
        )
    return make_result("bt", npb_class, p, t.elapsed_s, errors, residuals)
