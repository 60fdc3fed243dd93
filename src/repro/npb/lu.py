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
    ``i + j + k == h``, ascending; flat index convention is C-order
    ``(i, j, k)``.  The planes are consecutive slices of one
    permutation, ``order``: a sweep works in this *plane-major* layout,
    where every hyperplane is one contiguous block of columns.
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("grid must be at least 2^3")
        self.n = n
        npts = n**3
        idx = np.arange(n)
        gi, gj, gk = np.meshgrid(idx, idx, idx, indexing="ij")
        h = (gi + gj + gk).ravel()
        self.order = np.argsort(h, kind="stable")
        self.bounds = np.searchsorted(h[self.order], np.arange(3 * n - 1))
        self.planes = [
            self.order[self.bounds[i] : self.bounds[i + 1]] for i in range(3 * n - 2)
        ]
        # Per axis and plane-major position: where the lower (upper)
        # neighbour sits in the same layout.  A missing neighbour points
        # at column ``npts``, which a sweep keeps at zero.
        position = np.empty(npts, dtype=np.intp)
        position[self.order] = np.arange(npts)
        self._lower = np.full((3, npts), npts, dtype=np.intp)
        self._upper = np.full((3, npts), npts, dtype=np.intp)
        for axis, (coord, stride) in enumerate(zip((gi, gj, gk), (n * n, n, 1))):
            at = coord.ravel()[self.order]
            has = at > 0
            self._lower[axis, has] = position[self.order[has] - stride]
            has = at < n - 1
            self._upper[axis, has] = position[self.order[has] + stride]

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
        upper (backward) neighbour stencil.  Each plane's update is
        ``diag_inv @ (rhs - sum_axis weight * x_neighbour)`` on one
        C-contiguous ``(NCOMP, k)`` block, as in the point-ordered
        formulation, so the result does not depend on the layout.
        """
        npts = self.n**3
        links = self._lower if forward else self._upper
        weight = np.array([[OMEGA * c] for c in neighbour_coeff])
        b = np.take(rhs, self.order, axis=1)
        x = np.zeros((NCOMP, npts + 1))  # plane-major; last column stays 0
        bounds = self.bounds.tolist()
        widest = int(np.diff(self.bounds).max())
        acc_buf = np.empty(NCOMP * widest)
        term_buf = np.empty(NCOMP * 3 * widest)
        planes = range(self.n_planes())
        for p in planes if forward else reversed(planes):
            start, stop = bounds[p], bounds[p + 1]
            k = stop - start
            acc = acc_buf[: NCOMP * k].reshape(NCOMP, k)
            term = term_buf[: NCOMP * 3 * k].reshape(NCOMP, 3, k)
            # mode="clip": the default mode buffers ``out=``; indices are ours.
            np.take(x, links[:, start:stop], axis=1, out=term, mode="clip")
            np.multiply(weight, term, out=term)  # weight[axis] * x_neighbour
            np.subtract(b[:, start:stop], term[:, 0], out=acc)
            np.subtract(acc, term[:, 1], out=acc)
            np.subtract(acc, term[:, 2], out=acc)
            np.matmul(diag_inv, acc, out=x[:, start:stop])
        out = np.empty_like(rhs)
        out[:, self.order] = x[:, :npts]
        return out


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
