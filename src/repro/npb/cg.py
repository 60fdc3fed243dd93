"""CG -- the Conjugate Gradient benchmark (functional).

Estimates the smallest eigenvalue of a sparse symmetric positive-definite
matrix with the inverse power method: each outer iteration solves
``A z = x`` with 25 unpreconditioned CG iterations and updates
``zeta = shift + 1 / (x . z)``.

The matrix comes from the NPB ``makea`` generator.  Its random stream is
reproduced call for call (the shared ``randlc`` stream, ``sprnvc``'s
rejection sampling, ``vecset``'s diagonal insertion), and so is its
sparsity pattern; its arithmetic is not.  :func:`_makea_triples` forms
each outer product as ``(v v^T) * size`` and appends the ``rcond -
shift`` diagonal as ``n`` separate triples after the last outer product,
where the reference forms ``aelt(nzrow) * (size * aelt(nza))`` and adds
the shift into the ``iouter == i`` term as it accumulates.  Diagonal
values may therefore differ from the reference by up to 4 ulp.  The
final ``zeta`` still matches the *official NPB verification values*
(e.g. 8.5971775078648 for class S) to 1e-10 at classes S, W and A.

CG is the paper's irregular-access probe: the sparse matrix-vector
product gathers ``x[colidx[k]]`` through an index load -- the access
pattern behind both the SG2044's cluster-L2 story (Section 5.4) and the
Section 6 RVV vectorisation anomaly.
"""

from __future__ import annotations

import threading

import numpy as np

from .common import BenchmarkResult, NPBClass, Timer, lcg_stream
from .params import CGParams, cg_params

__all__ = [
    "CSRMatrix",
    "run_cg",
    "make_matrix",
    "clear_matrix_cache",
    "conj_grad",
    "power_method",
]

_AMULT = 1220703125
_MASK46 = (1 << 46) - 1
_TWO46 = float(1 << 46)
_RANDLC_BLOCK = 1024


class _ScalarRandlc:
    """Python-int randlc stream (the reference implementation).

    Kept as the ground truth the batched stream is tested against.
    """

    __slots__ = ("x",)

    def __init__(self, seed: int = 314159265) -> None:
        self.x = seed

    def next(self) -> float:
        self.x = (_AMULT * self.x) & _MASK46
        return self.x / _TWO46

    def draw(self, k: int) -> np.ndarray:
        return np.array([self.next() for _ in range(k)], dtype=np.float64)


class _BatchedRandlc:
    """randlc stream generated in vectorised blocks through ``lcg_stream``.

    Produces the exact sequence of :class:`_ScalarRandlc` under any mix of
    ``next()`` and ``draw(k)`` calls.  ``x`` always holds the state of the
    most recently *consumed* value, so a fresh instance seeded from ``x``
    continues the stream exactly (what the matrix cache relies on).
    """

    __slots__ = ("x", "_states", "_values", "_pos")

    def __init__(self, seed: int = 314159265) -> None:
        self.x = seed
        self._states = np.empty(0, dtype=np.uint64)
        self._values = np.empty(0, dtype=np.float64)
        self._pos = 0

    def _refill(self, k: int) -> None:
        # Only called with the buffer exhausted, so self.x is the
        # generation frontier: the block is x * a^1 .. x * a^m mod 2^46.
        m = min(max(k, 256), _RANDLC_BLOCK)
        states = lcg_stream((_AMULT * self.x) & _MASK46, _AMULT, m)
        self._states = states
        self._values = states.astype(np.float64) / _TWO46
        self._pos = 0

    def next(self) -> float:
        if self._pos >= len(self._states):
            self._refill(1)
        v = self._values[self._pos]
        self.x = int(self._states[self._pos])
        self._pos += 1
        return float(v)

    def draw(self, k: int) -> np.ndarray:
        """The next ``k`` stream values as one array."""
        out = np.empty(k, dtype=np.float64)
        filled = 0
        while filled < k:
            if self._pos >= len(self._states):
                self._refill(k - filled)
            take = min(k - filled, len(self._states) - self._pos)
            out[filled : filled + take] = self._values[self._pos : self._pos + take]
            self._pos += take
            self.x = int(self._states[self._pos - 1])
            filled += take
        return out


def _sprnvc(rng, n: int, nz: int, nn1: int) -> tuple[list, list]:
    """NPB sprnvc: ``nz`` distinct random (value, index) pairs in [1, n].

    Index candidates come from ``int(vecloc * nn1) + 1`` with rejection of
    out-of-range and duplicate indices -- reproduced exactly so the
    ``randlc`` stream advances like the reference code's.  Draws come in
    blocks of ``2 * (pairs still needed)`` -- the fewest the rejection
    loop can consume, so the stream position always matches the
    call-at-a-time reference.
    """
    values: list[float] = []
    indices: list[int] = []
    seen: set[int] = set()
    while len(values) < nz:
        block = rng.draw(2 * (nz - len(values)))
        for vecelt, vecloc in zip(block[0::2].tolist(), block[1::2].tolist()):
            i = int(vecloc * nn1) + 1
            if i > n or i in seen:
                continue
            seen.add(i)
            values.append(vecelt)
            indices.append(i)
    return values, indices


class CSRMatrix:
    """A read-only compressed-sparse-row matrix that supports ``A @ x``.

    ``indptr``, ``indices`` and ``data`` are the usual compressed-row
    arrays.  The holder takes them over and makes them read-only, because
    :func:`make_matrix` hands one memoised instance to every caller in
    the process.  Every row must store at least one entry (every
    ``makea`` row holds its diagonal): the matvec reduces each row with
    ``np.add.reduceat``, which returns ``a[start]`` rather than 0 for an
    empty segment.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape: tuple[int, int]) -> None:
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        data = np.asarray(data, dtype=np.float64)
        n_rows, n_cols = shape
        if indptr.shape != (n_rows + 1,) or indices.shape != data.shape:
            raise ValueError("inconsistent CSR arrays")
        if n_rows < 1 or indptr[0] != 0 or indptr[-1] != len(data):
            raise ValueError("inconsistent CSR arrays")
        if np.any(indptr[1:] <= indptr[:-1]):
            raise ValueError("every CSR row needs at least one stored entry")
        if indices.min() < 0 or indices.max() >= n_cols:
            raise ValueError("CSR column index out of range")
        for arr in (indptr, indices, data):
            arr.flags.writeable = False
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = (n_rows, n_cols)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape: tuple[int, int]) -> CSRMatrix:
        """Assemble from COO triples, summing duplicates in the order given.

        Triples are stable-sorted by (row, column); each duplicate group
        is then summed left to right from its first value -- NPB
        ``sparse()``'s generation-order accumulation, independent of any
        sort's tie order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        n_rows, n_cols = shape
        order = np.argsort(rows * n_cols + cols, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(first) - 1
        data = vals[first]
        rest = ~first
        np.add.at(data, group[rest], vals[rest])
        indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows[first], minlength=n_rows), out=indptr[1:])
        return cls(indptr, cols[first], data, shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.shape[1],):
            raise ValueError(f"cannot multiply {self.shape} matrix by {x.shape}")
        prod = x[self.indices]  # the gather NPB's colidx[k] names
        prod *= self.data
        return np.add.reduceat(prod, self.indptr[:-1])


_matrix_cache: dict[tuple, tuple[CSRMatrix, int]] = {}
_matrix_lock = threading.Lock()


def make_matrix(params: CGParams) -> tuple[CSRMatrix, _BatchedRandlc]:
    """NPB ``makea``: the random SPD matrix for one problem class.

    Returns the CSR matrix and the advanced ``randlc`` stream (the driver
    consumed one value for the initial ``zeta`` before ``makea``, exactly
    like the reference main program).

    Generation is memoised per problem shape: a cache hit returns the
    *same* read-only :class:`CSRMatrix` plus a fresh stream seeded
    at exactly the state ``makea`` left it in, so downstream draws are
    identical either way.  :func:`clear_matrix_cache` evicts.
    """
    key = (params.n, params.nonzer, params.rcond, params.shift)
    with _matrix_lock:
        hit = _matrix_cache.get(key)
    if hit is not None:
        a, state = hit
        return a, _BatchedRandlc(state)
    a, rng = _make_matrix_uncached(params)
    with _matrix_lock:
        _matrix_cache[key] = (a, rng.x)
    return a, rng


def clear_matrix_cache() -> None:
    """Drop all memoised ``makea`` matrices."""
    with _matrix_lock:
        _matrix_cache.clear()


def _make_matrix_uncached(params: CGParams) -> tuple[CSRMatrix, _BatchedRandlc]:
    rows, cols, vals, rng = _makea_triples(params)
    # Duplicate entries are summed in generation order, like NPB's sparse().
    return CSRMatrix.from_coo(rows, cols, vals, (params.n, params.n)), rng


def _makea_triples(
    params: CGParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, _BatchedRandlc]:
    """``makea``'s COO triples (rows, cols, values) in generation order.

    Duplicates are left unsummed; the advanced stream comes last.
    """
    n, nonzer, rcond, shift = params.n, params.nonzer, params.rcond, params.shift
    rng = _BatchedRandlc()
    rng.next()  # the driver's "zeta = randlc(tran, amult)" warm-up call

    nn1 = 1
    while nn1 < n:
        nn1 *= 2

    ratio = rcond ** (1.0 / n)
    size = 1.0
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for iouter in range(1, n + 1):
        values, indices = _sprnvc(rng, n, nonzer, nn1)
        # vecset: force element 'iouter' to 0.5 (insert if absent).
        if iouter in indices:
            values[indices.index(iouter)] = 0.5
        else:
            values.append(0.5)
            indices.append(iouter)
        v = np.asarray(values)
        idx = np.asarray(indices, dtype=np.int64) - 1  # to 0-based
        # Outer product v v^T scaled by the geometric conditioner.
        block = np.outer(v, v) * size
        rows.append(np.repeat(idx, len(idx)))
        cols.append(np.tile(idx, len(idx)))
        vals.append(block.ravel())
        size *= ratio

    # Diagonal shift: a(i,i) += rcond - shift.
    diag = np.arange(n, dtype=np.int64)
    rows.append(diag)
    cols.append(diag)
    vals.append(np.full(n, rcond - shift))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), rng


def conj_grad(
    a: CSRMatrix, x: np.ndarray, inner_iterations: int = 25
) -> tuple[np.ndarray, float]:
    """25 CG iterations for ``A z = x`` from ``z = 0``; returns (z, ||r||).

    The final residual norm is ``||x - A z||`` like the reference
    ``conj_grad`` routine.
    """
    z = np.zeros_like(x)
    r = x.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(inner_iterations):
        if rho == 0.0:
            break  # converged exactly; nothing left to minimise
        q = a @ p
        pq = float(p @ q)
        if pq == 0.0:
            break
        alpha = rho / pq
        z += alpha * p
        r -= alpha * q
        rho0 = rho
        rho = float(r @ r)
        beta = rho / rho0
        p = r + beta * p
    rnorm = float(np.linalg.norm(x - a @ z))
    return z, rnorm


def power_method(
    a: CSRMatrix,
    shift: float,
    niter: int,
    inner_iterations: int = 25,
) -> tuple[float, float]:
    """The CG driver's inverse power iteration; returns (zeta, last rnorm)."""
    n = a.shape[0]
    x = np.ones(n)
    zeta = 0.0
    rnorm = 0.0
    for _ in range(niter):
        z, rnorm = conj_grad(a, x, inner_iterations)
        zeta = shift + 1.0 / float(x @ z)
        x = z / np.linalg.norm(z)
    return zeta, rnorm


def run_cg(npb_class: NPBClass | str = NPBClass.S) -> BenchmarkResult:
    """Run CG functionally at ``npb_class`` and verify ``zeta``.

    Classes S/W/A/B carry official NPB verification values; the tolerance
    is the reference code's 1e-10 absolute on ``zeta``.
    """
    if isinstance(npb_class, str):
        npb_class = NPBClass(npb_class)
    p = cg_params(npb_class)
    a, _rng = make_matrix(p)

    # Untimed warm-up pass (one outer iteration), as in the reference.
    power_method(a, p.shift, 1, p.inner_iterations)

    with Timer() as t:
        zeta, rnorm = power_method(a, p.shift, p.niter, p.inner_iterations)

    if p.zeta_ref is not None:
        verified = abs(zeta - p.zeta_ref) <= 1e-10
    else:
        # No official constant: accept a converged, shift-dominated zeta.
        verified = np.isfinite(zeta) and zeta > p.shift
    return BenchmarkResult(
        name="cg",
        npb_class=npb_class,
        verified=bool(verified),
        time_s=t.elapsed_s,
        total_mops=p.total_mops,
        details={
            "zeta": zeta,
            "zeta_ref": p.zeta_ref if p.zeta_ref is not None else float("nan"),
            "rnorm": rnorm,
            "nnz": float(a.nnz),
        },
    )
