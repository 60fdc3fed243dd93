"""CG: makea fidelity (official zeta!), CSR assembly, CG iteration, power method."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from repro.npb.cg import (
    CSRMatrix,
    _makea_triples,
    clear_matrix_cache,
    conj_grad,
    make_matrix,
    power_method,
    run_cg,
)
from repro.npb.common import NPBClass
from repro.npb.params import cg_params


@pytest.fixture(scope="module")
def matrix_s():
    return make_matrix(cg_params(NPBClass.S))[0]


def dense(a: CSRMatrix) -> np.ndarray:
    out = np.zeros(a.shape)
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    out[rows, a.indices] = a.data
    return out


def from_dense(m: np.ndarray) -> CSRMatrix:
    rows, cols = np.nonzero(m)
    return CSRMatrix.from_coo(rows, cols, m[rows, cols], m.shape)


def same_matrix(a: CSRMatrix, b: CSRMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def dict_accumulate(rows, cols, vals):
    """Straight-line ``sparse()``: duplicates summed in generation order."""
    acc: dict[tuple[int, int], float] = {}
    for r, c, v in zip(rows, cols, vals):
        key = (int(r), int(c))
        if key in acc:
            acc[key] += float(v)
        else:
            acc[key] = float(v)
    return acc


class TestMakea:
    def test_shape_and_nnz(self, matrix_s):
        assert matrix_s.shape == (1400, 1400)
        # ~ n (nonzer+1)^2 * dedup factor.
        assert 40_000 < matrix_s.nnz < 120_000

    def test_symmetric(self, matrix_s):
        # Generation-order summation visits (i, j) and (j, i) duplicates
        # in the same order, so the matrix is symmetric to the last bit.
        m = dense(matrix_s)
        assert np.array_equal(m, m.T)

    def test_diagonal_dominant_negative_shift(self, matrix_s):
        # a(i,i) gets rcond - shift = 0.1 - 10 added: strongly negative
        # diagonal, which is what makes A - shift*I SPD-like for the
        # inverse power method.
        diag = np.diagonal(dense(matrix_s))
        assert np.all(diag < 0)

    def test_deterministic(self):
        a1, _ = make_matrix(cg_params(NPBClass.S))
        clear_matrix_cache()
        a2, _ = make_matrix(cg_params(NPBClass.S))
        assert a1 is not a2
        assert same_matrix(a1, a2)

    def test_matches_scipy_assembly(self, matrix_s):
        # Same structure as SciPy's COO -> CSR conversion.  SciPy sums a
        # duplicate group in its sort's (unspecified) tie order: off the
        # diagonal that moves a value by at most 1 ulp; on it, where the
        # large rcond - shift term can come first and every later small
        # term then rounds at its ulp, by at most 4 ulp at class S.
        rows, cols, vals, _ = _makea_triples(cg_params(NPBClass.S))
        ref = sp.coo_matrix((vals, (rows, cols)), shape=matrix_s.shape).tocsr()
        assert np.array_equal(matrix_s.indptr, ref.indptr)
        assert np.array_equal(matrix_s.indices, ref.indices)
        ulps = np.abs(matrix_s.data - ref.data) / np.spacing(np.abs(ref.data))
        on_diag = np.repeat(np.arange(1400), np.diff(ref.indptr)) == ref.indices
        assert ulps[~on_diag].max() <= 1
        assert ulps[on_diag].max() <= 4
        assert np.count_nonzero(ulps) < 0.01 * matrix_s.nnz

    def test_assembly_sums_in_generation_order(self, matrix_s):
        rows, cols, vals, _ = _makea_triples(cg_params(NPBClass.S))
        assert len(rows) > matrix_s.nnz  # duplicates were summed
        acc = dict_accumulate(rows, cols, vals)
        m = dense(matrix_s)
        assert len(acc) == matrix_s.nnz
        assert all(m[key] == value for key, value in acc.items())


def assert_matvec_matches_scipy(a: CSRMatrix, x: np.ndarray) -> None:
    """``a @ x`` within ``rtol=1e-14`` of SciPy's, relative to each row's
    ``sum |a_ij x_j|`` (summation order differs; rows can cancel to ~0)."""
    ref = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    scale = abs(ref) @ np.abs(x)
    assert np.all(np.abs(a @ x - ref @ x) <= 1e-14 * scale)


@st.composite
def coo_cases(draw):
    """Random triples, every row non-empty, many duplicate groups of 3+."""
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 8))
    cell = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    cells = [(r, draw(st.integers(0, n_cols - 1))) for r in range(n_rows)]
    hot = draw(st.lists(cell, min_size=1, max_size=4))
    cells += draw(st.lists(st.one_of(cell, st.sampled_from(hot)), max_size=60))
    order = draw(st.permutations(range(len(cells))))
    triples = [(*cells[i], draw(value)) for i in order]
    rows, cols, vals = (np.array(t) for t in zip(*triples))
    return rows.astype(np.int64), cols.astype(np.int64), vals.astype(float), (n_rows, n_cols)


class TestCSRMatrix:
    @given(case=coo_cases())
    @example(case=(np.array([0, 0, 0]), np.array([0, 0, 0]), np.array([1.0, 1e-16, 1e-16]), (1, 1)))
    @settings(max_examples=80, deadline=None)
    def test_assembly_matches_generation_order_sum(self, case):
        rows, cols, vals, shape = case
        a = CSRMatrix.from_coo(rows, cols, vals, shape)
        acc = dict_accumulate(rows, cols, vals)
        got = {
            (r, int(c)): float(v)
            for r in range(shape[0])
            for c, v in zip(
                a.indices[a.indptr[r] : a.indptr[r + 1]],
                a.data[a.indptr[r] : a.indptr[r + 1]],
            )
        }
        assert list(got) == sorted(acc)  # rows, then columns, ascending
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in acc.items()}
        ref = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        assert np.array_equal(a.indptr, ref.indptr)
        assert np.array_equal(a.indices, ref.indices)

    @given(case=coo_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matvec_matches_scipy(self, case, seed):
        rows, cols, vals, shape = case
        a = CSRMatrix.from_coo(rows, cols, vals, shape)
        assert_matvec_matches_scipy(a, np.random.default_rng(seed).normal(size=shape[1]))

    def test_matvec_matches_scipy_on_makea(self, matrix_s):
        for seed in range(3):
            x = np.random.default_rng(seed).normal(size=matrix_s.shape[1])
            assert_matvec_matches_scipy(matrix_s, x)
        assert_matvec_matches_scipy(matrix_s, np.ones(matrix_s.shape[1]))

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="row"):
            CSRMatrix.from_coo([0, 2], [0, 1], [1.0, 2.0], (3, 3))

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="column"):
            CSRMatrix([0, 1], [3], [1.0], (1, 3))

    def test_wrong_vector_length_rejected(self, matrix_s):
        with pytest.raises(ValueError):
            matrix_s @ np.ones(7)


class TestConjGrad:
    def test_solves_spd_system(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(50, 50))
        a = from_dense(m @ m.T + 50 * np.eye(50))
        x = rng.normal(size=50)
        z, rnorm = conj_grad(a, x, inner_iterations=50)
        assert np.allclose(a @ z, x, atol=1e-6)
        assert rnorm < 1e-6

    def test_residual_norm_definition(self, matrix_s):
        x = np.ones(1400)
        z, rnorm = conj_grad(matrix_s, x, inner_iterations=5)
        assert rnorm == pytest.approx(np.linalg.norm(x - matrix_s @ z))


class TestPowerMethod:
    def test_diagonal_matrix_known_eigenvalue(self):
        # For A = diag(d), the power iteration converges to the dominant
        # |1/d|; zeta = shift + 1/(x.z) with z = A^-1 x.
        d = np.array([-2.0, -4.0, -8.0])
        a = from_dense(np.diag(d))
        zeta, _ = power_method(a, shift=10.0, niter=50, inner_iterations=30)
        # x converges to the eigenvector of min |d| (=-2): zeta -> 10 - 2.
        assert zeta == pytest.approx(8.0, abs=1e-6)


class TestRunCG:
    def test_class_s_matches_official_zeta(self):
        result = run_cg("S")
        assert result.verified
        assert result.details["zeta"] == pytest.approx(8.5971775078648, abs=1e-10)

    @pytest.mark.slow
    def test_class_w_matches_official_zeta(self):
        result = run_cg("W")
        assert result.verified
        assert result.details["zeta"] == pytest.approx(10.362595087124, abs=1e-10)


class TestBatchedRandlc:
    def test_stream_matches_scalar_reference(self):
        from repro.npb.cg import _BatchedRandlc, _ScalarRandlc

        scalar, batched = _ScalarRandlc(), _BatchedRandlc()
        # Mixed next()/draw() patterns, including a draw larger than one
        # refill block, must consume the identical stream.
        for k in (1, 1, 7, 1500, 2, 1024, 3, 2500):
            assert np.array_equal(scalar.draw(k), batched.draw(k))
            assert scalar.x == batched.x
        for _ in range(100):
            assert scalar.next() == batched.next()
        assert scalar.x == batched.x

    def test_reseeding_from_x_continues_stream(self):
        from repro.npb.cg import _BatchedRandlc

        a = _BatchedRandlc()
        a.draw(777)  # leave lookahead in the buffer
        b = _BatchedRandlc(a.x)
        assert np.array_equal(a.draw(50), b.draw(50))


class TestMatrixCache:
    def test_hit_returns_same_matrix_and_equivalent_stream(self):
        clear_matrix_cache()
        a1, rng1 = make_matrix(cg_params(NPBClass.S))
        a2, rng2 = make_matrix(cg_params(NPBClass.S))
        assert a1 is a2  # shared read-only artifact
        assert np.array_equal(rng1.draw(64), rng2.draw(64))

    def test_clear_evicts(self):
        clear_matrix_cache()
        a1, _ = make_matrix(cg_params(NPBClass.S))
        clear_matrix_cache()
        a2, _ = make_matrix(cg_params(NPBClass.S))
        assert a1 is not a2
        assert same_matrix(a1, a2)

    @pytest.mark.parametrize("field", ["indptr", "indices", "data"])
    def test_cached_matrix_is_read_only(self, field):
        a, _ = make_matrix(cg_params(NPBClass.S))
        a_hit, _ = make_matrix(cg_params(NPBClass.S))
        assert a_hit is a
        with pytest.raises(ValueError, match="read-only"):
            getattr(a_hit, field)[0] *= 2
        assert run_cg("S").verified  # the shared matrix is intact

    def test_clear_rebuilds_a_read_only_matrix(self):
        a1, _ = make_matrix(cg_params(NPBClass.S))
        clear_matrix_cache()
        a2, _ = make_matrix(cg_params(NPBClass.S))
        assert a2 is not a1 and same_matrix(a1, a2)
        assert not a2.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a2.data[0] = 0.0
