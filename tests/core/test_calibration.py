"""Calibration anchors: provenance and reproduction of single-core points."""

import pytest

from repro.core.calibration import ANCHORS, Anchor, anchor_for, calibration_factors
from repro.machines.catalog import get_machine, machine_names
from repro.npb.params import ALL_BENCHMARKS


class TestAnchorTable:
    def test_anchor_lookup(self):
        a = anchor_for("sg2044", "ep")
        assert a is not None
        assert a.mops == pytest.approx(40.76)
        assert a.npb_class == "C"

    def test_missing_anchor_is_none(self):
        assert anchor_for("allwinner-d1", "bt") is None

    def test_sg2044_cg_anchor_is_novec(self):
        # The paper measures CG unvectorised (Section 6).
        assert anchor_for("sg2044", "cg").vectorise is False

    def test_all_anchor_machines_exist(self):
        names = set(machine_names())
        for machine, kernel in ANCHORS:
            assert machine in names
            assert kernel in ALL_BENCHMARKS

    def test_hpc_anchor_derivation_flagged(self):
        # The x86/Arm single-core values are derived from prose, not tables.
        assert anchor_for("epyc7742", "is").derived
        assert not anchor_for("sg2044", "is").derived

    def test_riscv_board_anchors_are_class_b(self):
        for board in ("visionfive2", "bananapi-f3", "milkv-jupiter"):
            assert anchor_for(board, "ep").npb_class == "B"

    def test_positive_mops_enforced(self):
        with pytest.raises(ValueError):
            Anchor("C", 0.0)


class TestFactors:
    def test_unanchored_pair_is_identity(self):
        alpha, kappa = calibration_factors(get_machine("allwinner-d1"), "bt")
        assert (alpha, kappa) == (1.0, 1.0)

    def test_compute_attribution_for_ep(self):
        alpha, kappa = calibration_factors(get_machine("sg2044"), "ep")
        assert kappa == 1.0
        assert alpha > 0

    def test_time_attribution_for_is(self):
        alpha, kappa = calibration_factors(get_machine("sg2044"), "is")
        assert alpha == 1.0
        assert kappa > 0


class TestAnchorReproduction:
    """The calibrated model must land every anchored single-core point."""

    @pytest.mark.parametrize(
        "machine,kernel",
        [(m, k) for (m, k) in sorted(ANCHORS)],
    )
    def test_anchor_reproduced(self, machine, kernel, model):
        from repro.compilers.gcc import default_compiler_for, get_compiler
        from repro.npb.signatures import signature_for

        anchor = ANCHORS[(machine, kernel)]
        m = get_machine(machine)
        sig = signature_for(kernel, anchor.npb_class)
        compiler = get_compiler(default_compiler_for(machine))
        pred = model.predict(m, sig, compiler, 1, anchor.vectorise)
        assert pred.mops == pytest.approx(anchor.mops, rel=1e-6)
