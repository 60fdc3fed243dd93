"""LU: hyperplane wavefronts and SSOR sweep correctness."""

import numpy as np
import pytest

from repro.npb.lu import OMEGA, Hyperplanes, lu_step, run_lu, ssor_step
from repro.npb.pseudo import NCOMP, ModelProblem


class TestHyperplanes:
    def test_partition_complete_and_disjoint(self):
        h = Hyperplanes(6)
        seen = np.concatenate(h.planes)
        assert len(seen) == 6**3
        assert len(np.unique(seen)) == 6**3

    def test_plane_count(self):
        assert Hyperplanes(6).n_planes() == 3 * 6 - 2

    def test_plane_membership(self):
        n = 4
        h = Hyperplanes(n)
        for plane_id, plane in enumerate(h.planes):
            for flat in plane:
                i, j, k = flat // (n * n), (flat // n) % n, flat % n
                assert i + j + k == plane_id

    def test_corner_planes_singletons(self):
        h = Hyperplanes(5)
        assert len(h.planes[0]) == 1
        assert len(h.planes[-1]) == 1

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            Hyperplanes(1)


class TestSweepCorrectness:
    def test_forward_sweep_solves_lower_triangular_system(self):
        """(D + omega*L) x = rhs, checked by explicit reconstruction."""
        n = 4
        h = Hyperplanes(n)
        rng = np.random.default_rng(10)
        rhs = rng.normal(size=(NCOMP, n**3))
        diag = 3.0 * np.eye(NCOMP) + 0.1
        coeff = (0.3, 0.2, 0.1)
        x = h.sweep(rhs, np.linalg.inv(diag), coeff, forward=True)

        # Reconstruct (D + omega L) x and compare to rhs.
        recon = np.zeros_like(rhs)
        strides = (n * n, n, 1)
        for flat in range(n**3):
            i, j, k = flat // (n * n), (flat // n) % n, flat % n
            acc = diag @ x[:, flat]
            for axis, (idx, s) in enumerate(zip((i, j, k), strides)):
                if idx > 0:
                    acc += OMEGA * coeff[axis] * x[:, flat - s]
            recon[:, flat] = acc
        assert np.allclose(recon, rhs, atol=1e-10)

    def test_backward_sweep_mirror(self):
        n = 3
        h = Hyperplanes(n)
        rng = np.random.default_rng(11)
        rhs = rng.normal(size=(NCOMP, n**3))
        diag = 4.0 * np.eye(NCOMP)
        coeff = (0.2, 0.2, 0.2)
        x = h.sweep(rhs, np.linalg.inv(diag), coeff, forward=False)
        recon = np.zeros_like(rhs)
        strides = (n * n, n, 1)
        for flat in range(n**3):
            i, j, k = flat // (n * n), (flat // n) % n, flat % n
            acc = diag @ x[:, flat]
            for axis, (idx, s) in enumerate(zip((i, j, k), strides)):
                if idx < n - 1:
                    acc += OMEGA * coeff[axis] * x[:, flat + s]
            recon[:, flat] = acc
        assert np.allclose(recon, rhs, atol=1e-10)


class TestLUConvergence:
    def test_ssor_step_reduces_error(self):
        prob = ModelProblem(8)
        hyper = Hyperplanes(8)
        u = np.zeros((NCOMP, 8, 8, 8))
        dt = 0.8 * prob.h
        e0 = prob.error_norm(u)
        for _ in range(10):
            u = u + ssor_step(prob, hyper, prob.residual(u), dt)
        assert prob.error_norm(u) < 0.6 * e0

    def test_convenience_step_matches_factory(self):
        prob = ModelProblem(6)
        u = np.zeros((NCOMP, 6, 6, 6))
        r = prob.residual(u)
        a = lu_step(prob, u, r, 0.1)
        from repro.npb.lu import lu_step_factory

        b = lu_step_factory(Hyperplanes(6))(prob, u, r, 0.1)
        assert np.array_equal(a, b)

    def test_class_s_verifies(self):
        assert run_lu("S").verified
