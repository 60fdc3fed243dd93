"""Shared substrate for the BT / LU / SP pseudo-applications.

The NPB pseudo-apps all march the same discretised 3-D compressible
Navier-Stokes system to a steady verification state and differ only in the
implicit solver: BT factorises per-direction 5x5 *block tridiagonal*
systems, SP diagonalises them into *scalar pentadiagonal* systems, LU
applies an SSOR *block lower/upper* sweep (Gauss-Seidel flavoured).

This reproduction keeps exactly that structure on a structurally-faithful
model system (documented substitution -- DESIGN.md): a five-component
linear convection-diffusion system

    L(U) = c . grad(U) + K U - nu * laplace(U) = F

on a periodic cube, with a constant 5x5 coupling matrix ``K`` standing in
for the flux Jacobian (so BT's blocks are genuinely non-diagonal) and a
manufactured forcing ``F = L(U*)`` whose exact steady state ``U*`` is
known.  Each solver time-marches ``U^{n+1} = U^n + M^{-1}(F - L(U^n))``
with its characteristic approximate factorisation ``M``, so the per-point
flop/byte/sweep pattern -- what the paper's Table 6 measures -- matches the
original solvers, and verification is exact: the error ``||U - U*||``
must contract every iteration.
"""

from __future__ import annotations

import numpy as np

from .common import BenchmarkResult, NPBClass, Timer
from .params import PseudoAppParams

__all__ = [
    "NCOMP",
    "ModelProblem",
    "coupling_matrix",
    "manufactured_solution",
    "apply_operator",
    "adi_step",
    "march_to_steady_state",
    "make_result",
]

NCOMP = 5  # components, like the Navier-Stokes conservative variables

#: Background convection velocity per axis (the same for all components,
#: like a frozen mean flow).
VELOCITY = (1.0, 0.8, 0.6)

#: Diffusion coefficient; also provides the dissipation that makes the
#: implicit marches contract.
VISCOSITY = 0.25


def coupling_matrix() -> np.ndarray:
    """A fixed symmetric positive-definite 5x5 coupling (frozen Jacobian).

    Positive-definiteness keeps every solver's iteration contractive, so
    error decay is a strict verification criterion rather than a hope.
    """
    base = np.array(
        [
            [2.0, 0.3, 0.1, 0.0, 0.2],
            [0.3, 2.2, 0.2, 0.1, 0.0],
            [0.1, 0.2, 2.4, 0.3, 0.1],
            [0.0, 0.1, 0.3, 2.1, 0.2],
            [0.2, 0.0, 0.1, 0.2, 2.3],
        ]
    )
    return base


class ModelProblem:
    """The discrete model system on an ``n^3`` periodic grid.

    Fields have shape ``(NCOMP, n, n, n)``.  Spacing is ``h = 1/n``.
    """

    def __init__(self, n: int) -> None:
        if n < 4:
            raise ValueError("grid must be at least 4^3")
        self.n = n
        self.h = 1.0 / n
        self.k_matrix = coupling_matrix()
        self.u_exact = manufactured_solution(n)
        self.forcing = apply_operator(self.u_exact, self.h, self.k_matrix)

    def residual(self, u: np.ndarray) -> np.ndarray:
        """``F - L(u)``: what each solver drives to zero."""
        return self.forcing - apply_operator(u, self.h, self.k_matrix)

    def error_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(((u - self.u_exact) ** 2).mean()))

    def residual_norm(self, u: np.ndarray) -> float:
        return _rms(self.residual(u))


def _rms(r: np.ndarray) -> float:
    return float(np.sqrt((r * r).mean()))


def manufactured_solution(n: int) -> np.ndarray:
    """Smooth periodic exact solution, distinct per component."""
    x = np.arange(n) / n
    gx, gy, gz = np.meshgrid(x, x, x, indexing="ij")
    u = np.empty((NCOMP, n, n, n))
    for c in range(NCOMP):
        u[c] = (
            np.sin(2 * np.pi * (gx + 0.1 * c))
            * np.cos(2 * np.pi * (gy - 0.05 * c))
            * np.cos(2 * np.pi * gz)
            + 0.1 * c
        )
    return u


def _roll_into(dst: np.ndarray, u: np.ndarray, axis: int, step: int) -> None:
    """``dst[...] = np.roll(u, step, axis)`` for ``step`` = +-1, no allocation."""
    head = (slice(None),) * axis
    if step == -1:  # dst[i] = u[i + 1], wrapping at the top
        dst[head + (slice(None, -1),)] = u[head + (slice(1, None),)]
        dst[head + (-1,)] = u[head + (0,)]
    else:  # dst[i] = u[i - 1], wrapping at the bottom
        dst[head + (slice(1, None),)] = u[head + (slice(None, -1),)]
        dst[head + (0,)] = u[head + (-1,)]


def apply_operator(u: np.ndarray, h: float, k_matrix: np.ndarray) -> np.ndarray:
    """``L(u) = c . grad(u) + K u - nu laplace(u)`` (all components).

    Per axis, with ``up``/``down`` the periodic neighbours at ``+-1``:
    ``out += c * ((up - down) / (2h))`` and
    ``out -= nu * ((up - 2u + down) / h^2)`` -- central differences
    evaluated in three buffers reused across the axes.
    """
    if u.ndim != 4 or u.shape[0] != NCOMP:
        raise ValueError(f"expected ({NCOMP}, n, n, n) field, got {u.shape}")
    out = np.einsum("cd,dxyz->cxyz", k_matrix, u)
    up, down, term = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    for axis, c in enumerate(VELOCITY):
        _roll_into(up, u, axis + 1, -1)
        _roll_into(down, u, axis + 1, 1)
        np.subtract(up, down, out=term)
        np.divide(term, 2 * h, out=term)
        np.multiply(c, term, out=term)
        out += term
        np.multiply(2.0, u, out=term)
        np.subtract(up, term, out=term)
        np.add(term, down, out=term)
        np.divide(term, h * h, out=term)
        np.multiply(VISCOSITY, term, out=term)
        out -= term
    return out


def adi_step(factors, solve_direction):
    """A march ``step`` that applies one pre-factored solve per direction.

    ``solve_direction(factor, field, axis)`` solves along ``axis`` with
    ``factors[axis]``.  The caller factors once per run, so each
    iteration only sweeps right-hand sides.
    """

    def step(_problem, _u, residual: np.ndarray, dt: float) -> np.ndarray:
        delta = dt * residual
        for axis, factor in enumerate(factors):
            delta = solve_direction(factor, delta, axis)
        return delta

    return step


def march_to_steady_state(
    problem: ModelProblem,
    step,
    iterations: int,
    dt: float,
) -> tuple[np.ndarray, list[float], list[float]]:
    """Generic driver: repeatedly apply a solver ``step``.

    ``step(problem, u, residual, dt) -> delta_u``.  Returns the final
    field plus per-iteration error and residual norms.  The residual of
    each updated field is computed once: its norm is reported and it
    drives the next step.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n = problem.n
    u = np.zeros((NCOMP, n, n, n))
    errors: list[float] = []
    residuals: list[float] = []
    r = problem.residual(u)
    for _ in range(iterations):
        u = u + step(problem, u, r, dt)
        errors.append(problem.error_norm(u))
        r = problem.residual(u)
        residuals.append(_rms(r))
    return u, errors, residuals


def make_result(
    name: str,
    npb_class: NPBClass,
    params: PseudoAppParams,
    elapsed: float,
    errors: list[float],
    residuals: list[float],
) -> BenchmarkResult:
    """Common verification: the error must contract and end small.

    * the error norm decreases in at least 90% of iterations (transient
      wiggle in the first steps is tolerated);
    * the final error is below 20% of the initial one (steady state being
      approached);
    * everything stays finite (stability of the factorisation).
    """
    errs = np.asarray(errors)
    finite = bool(np.all(np.isfinite(errs)))
    decreasing_steps = np.sum(np.diff(errs) <= 1e-12) if len(errs) > 1 else 0
    mostly_decreasing = (
        len(errs) < 2 or decreasing_steps >= 0.9 * (len(errs) - 1)
    )
    converged = errs[-1] <= 0.2 * errs[0]
    return BenchmarkResult(
        name=name,
        npb_class=npb_class,
        verified=bool(finite and mostly_decreasing and converged),
        time_s=elapsed,
        total_mops=params.total_mops,
        details={
            "initial_error": float(errs[0]),
            "final_error": float(errs[-1]),
            "final_residual": float(residuals[-1]),
            "iterations": float(len(errs)),
        },
    )
