"""LU -- the Lower-Upper Gauss-Seidel pseudo-application (functional).

Applies an SSOR step to the model system's implicit operator, split by
grid ordering into block-lower (neighbours at i-1, j-1, k-1), block-
diagonal, and block-upper parts::

    (D + omega L) D^{-1} (D + omega U) dU = dt (F - L(U))

Both triangular sweeps are *wavefront* parallel: all points on a
hyperplane ``i + j + k = const`` are independent (their lower/upper
neighbours live on the previous hyperplane), so each sweep runs as a
sequence of vectorised hyperplane updates -- exactly the dependency
structure that makes LU the hardest of the three pseudo-apps to scale
(the workload signature encodes it as per-hyperplane synchronisation).
"""

from __future__ import annotations

import numpy as np

from .common import BenchmarkResult, NPBClass, Timer
from .params import lu_params
from .pseudo import (
    NCOMP,
    VELOCITY,
    VISCOSITY,
    ModelProblem,
    make_result,
    march_to_steady_state,
)

__all__ = ["run_lu", "Hyperplanes", "ssor_step", "lu_step"]

#: SSOR relaxation factor (NPB LU uses omega = 1.2).
OMEGA = 1.2


class Hyperplanes:
    """Precomputed wavefront index sets for an ``n^3`` grid.

    ``planes[h]`` holds the flat indices of all points with
    ``i + j + k == h``; flat index convention is C-order ``(i, j, k)``.
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("grid must be at least 2^3")
        self.n = n
        idx = np.arange(n)
        gi, gj, gk = np.meshgrid(idx, idx, idx, indexing="ij")
        h = (gi + gj + gk).ravel()
        flat = np.arange(n**3)
        order = np.argsort(h, kind="stable")
        sorted_h = h[order]
        boundaries = np.searchsorted(sorted_h, np.arange(3 * n - 2 + 1))
        self.planes = [
            flat[order[boundaries[i] : boundaries[i + 1]]]
            for i in range(3 * n - 2)
        ]
        # Per plane and axis: which points have a lower (upper)
        # neighbour, and that neighbour's flat C-order index.  A mask of
        # ``None`` means every point has one, so the sweep can update the
        # whole plane without a boolean scatter.
        coords = (gi.ravel(), gj.ravel(), gk.ravel())
        self._lower = [self._links(p, coords, -1) for p in self.planes]
        self._upper = [self._links(p, coords, 1) for p in self.planes]

    def _links(self, plane, coords, sign):
        links = []
        for axis, stride in enumerate((self.n * self.n, self.n, 1)):
            pos = coords[axis][plane]
            mask = pos > 0 if sign < 0 else pos < self.n - 1
            if mask.any():
                nb = plane[mask] + sign * stride
                links.append((axis, None if mask.all() else mask, nb))
        return plane, links

    def n_planes(self) -> int:
        return len(self.planes)

    def sweep(
        self,
        rhs: np.ndarray,
        diag_inv: np.ndarray,
        neighbour_coeff: tuple[float, float, float],
        forward: bool,
    ) -> np.ndarray:
        """One triangular sweep.

        ``rhs`` is ``(NCOMP, n^3)`` flattened; returns the sweep solution
        of ``(D + omega T) x = rhs`` with ``T`` the lower (forward) or
        upper (backward) neighbour stencil.
        """
        x = np.zeros_like(rhs)
        planes = self._lower if forward else self._upper[::-1]
        weight = [OMEGA * c for c in neighbour_coeff]
        for plane, links in planes:
            acc = rhs[:, plane]
            for axis, mask, nb in links:
                if mask is None:
                    acc -= weight[axis] * x[:, nb]
                else:
                    acc[:, mask] -= weight[axis] * x[:, nb]
            x[:, plane] = diag_inv @ acc
        return x


def _coefficients(problem: ModelProblem, dt: float):
    """Diagonal block and neighbour scalars of ``I + dt L_discrete``."""
    h = problem.h
    diag = (
        np.eye(NCOMP) * (1.0 + dt * 6.0 * VISCOSITY / h**2)
        + dt * problem.k_matrix
    )
    lower = tuple(
        dt * (-VELOCITY[a] / (2 * h) - VISCOSITY / h**2) for a in range(3)
    )
    upper = tuple(
        dt * (VELOCITY[a] / (2 * h) - VISCOSITY / h**2) for a in range(3)
    )
    return diag, lower, upper


def ssor_step(
    problem: ModelProblem,
    hyper: Hyperplanes,
    residual: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One SSOR update ``(D + wL) D^{-1} (D + wU) dU = dt r``."""
    diag, lower, upper = _coefficients(problem, dt)
    diag_inv = np.linalg.inv(diag)
    n = problem.n
    rhs = (dt * residual).reshape(NCOMP, n**3)
    y = hyper.sweep(rhs, diag_inv, lower, forward=True)
    # Middle factor: multiply by D.
    y = diag @ y
    x = hyper.sweep(y, diag_inv, upper, forward=False)
    return x.reshape(NCOMP, n, n, n)


def lu_step_factory(hyper: Hyperplanes):
    """Bind the precomputed hyperplanes into a march-compatible step."""

    def lu_step(
        problem: ModelProblem, _u: np.ndarray, residual: np.ndarray, dt: float
    ) -> np.ndarray:
        return ssor_step(problem, hyper, residual, dt)

    return lu_step


def lu_step(
    problem: ModelProblem, _u: np.ndarray, residual: np.ndarray, dt: float
) -> np.ndarray:
    """Convenience step that builds hyperplanes on the fly (small grids)."""
    return ssor_step(problem, Hyperplanes(problem.n), residual, dt)


def run_lu(npb_class: NPBClass | str = NPBClass.S) -> BenchmarkResult:
    """Run LU functionally at ``npb_class`` and verify convergence."""
    if isinstance(npb_class, str):
        npb_class = NPBClass(npb_class)
    p = lu_params(npb_class)
    problem = ModelProblem(p.grid)
    hyper = Hyperplanes(p.grid)
    dt = 0.8 * problem.h  # SSOR tolerates a larger step than plain ADI

    with Timer() as t:
        _u, errors, residuals = march_to_steady_state(
            problem, lu_step_factory(hyper), p.iterations, dt
        )
    return make_result("lu", npb_class, p, t.elapsed_s, errors, residuals)
