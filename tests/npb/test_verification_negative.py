"""Failure injection: the verifiers must *reject* wrong computations.

A verification layer that never fails is decoration.  These tests corrupt
results and data paths and check that every acceptance check actually
trips.
"""

import numpy as np
import pytest

from repro.npb.common import NPBClass
from repro.npb import ep as ep_mod
from repro.npb.is_ import _full_verify, generate_keys, rank_keys
from repro.npb.mg import A_WEIGHTS, build_rhs, mg_solve, resid
from repro.npb.params import cg_params
from repro.npb.cg import make_matrix, power_method


class TestISRejectsCorruption:
    def test_unsorted_output_rejected(self):
        keys = generate_keys(1000, 64)
        wrong = np.sort(keys)[::-1].copy()
        assert not _full_verify(keys, wrong)

    def test_non_permutation_rejected(self):
        keys = generate_keys(1000, 64)
        wrong = np.sort(keys)
        wrong[0] = wrong[-1]  # duplicate one key: multiset differs
        assert not _full_verify(keys, wrong)

    def test_correct_sort_accepted(self):
        keys = generate_keys(1000, 64)
        assert _full_verify(keys, np.sort(keys))


class TestEPRejectsCorruption:
    def test_wrong_sums_fail_golden_check(self):
        counts = np.array([10, 8, 6, 4, 2, 1, 0, 0, 0, 0])
        n = int(counts.sum() / (np.pi / 4))
        ok = ep_mod._verify(NPBClass.S, -3247.83, -6958.40, counts, n)
        # Close to golden but not within 1e-9 relative: must fail.
        assert not ok

    def test_bad_acceptance_rate_fails(self):
        counts = np.zeros(10, dtype=np.int64)
        counts[0] = 100
        assert not ep_mod._verify(NPBClass.C, 0.0, 0.0, counts, 100000)

    def test_nonmonotone_annuli_fail(self):
        counts = np.array([5, 50, 5, 3, 2, 1, 0, 0, 0, 0], dtype=np.int64)
        n = int(counts.sum() / (np.pi / 4))
        assert not ep_mod._verify(NPBClass.C, 0.0, 0.0, counts, n)

    # _verify pins the first sums it sees for classes without an official
    # value, so these tests run against a fresh golden table.
    def test_annulus_after_empty_one_fails(self, monkeypatch):
        monkeypatch.setattr(ep_mod, "_GOLDEN", {})
        counts = np.array([500, 300, 0, 5, 0, 0, 0, 0, 0, 0], dtype=np.int64)
        n = int(counts.sum() / (np.pi / 4))
        assert not ep_mod._verify(NPBClass.W, 0.0, 0.0, counts, n)

    def test_monotone_twin_verifies(self, monkeypatch):
        monkeypatch.setattr(ep_mod, "_GOLDEN", {})
        counts = np.array([500, 300, 5, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64)
        n = int(counts.sum() / (np.pi / 4))
        assert ep_mod._verify(NPBClass.W, 0.0, 0.0, counts, n)


class TestCGRejectsCorruption:
    def test_perturbed_matrix_changes_zeta(self):
        params = cg_params(NPBClass.S)
        a, _ = make_matrix(params)
        zeta_good, _ = power_method(a, params.shift, 5)
        a_bad = a.copy()
        a_bad[0, 0] *= 1.01
        zeta_bad, _ = power_method(a_bad, params.shift, 5)
        assert abs(zeta_good - zeta_bad) > 1e-10  # the check would trip


class TestMGDetectsBrokenOperator:
    def test_divergent_iteration_detected(self):
        # A "smoother" with the wrong sign diverges; the monotone-decrease
        # check in run_mg exists exactly for this.  Emulate by checking
        # the norms of an intentionally wrong update sequence.
        v = build_rhs(16)
        u = np.zeros_like(v)
        r0 = float(np.sqrt((resid(u, v) ** 2).mean()))
        u_bad = u - 10.0 * v  # a step in a wrong direction and size
        r1 = float(np.sqrt((resid(u_bad, v) ** 2).mean()))
        assert r1 > r0  # the verifier's condition would fail

    def test_weights_still_sum_to_zero(self):
        # Guard against accidental edits to the stencil constants.
        assert A_WEIGHTS[0] + 6 * A_WEIGHTS[1] + 12 * A_WEIGHTS[2] + 8 * A_WEIGHTS[3] == pytest.approx(0.0)

    def test_solver_actually_depends_on_rhs(self):
        _, n1 = mg_solve(build_rhs(16, seed=314159265), 2)
        _, n2 = mg_solve(build_rhs(16, seed=271828183), 2)
        assert n1 != n2
