"""The reproduction scorecard: pinned accuracy bounds.

These bounds are the repository's quality gate: if a model change pushes
any group's error past them, the reproduction has regressed.
"""

import pytest

from repro.harness.scorecard import scorecard


@pytest.fixture(scope="module")
def scores():
    return {s.name: s for s in scorecard(table1_accesses=30_000)}


class TestScorecard:
    def test_all_five_groups_present(self, scores):
        assert len(scores) == 5

    def test_anchored_points_exact(self, scores):
        s = scores["Tables 2+3 (anchored)"]
        assert s.mean_abs_rel_err < 0.001
        assert s.max_abs_rel_err < 0.001

    def test_table4_emergent_within_bounds(self, scores):
        s = scores["Table 4 (64-core, emergent)"]
        assert s.mean_abs_rel_err < 0.07
        assert s.max_abs_rel_err < 0.20

    def test_table6_ratios_within_bounds(self, scores):
        s = scores["Table 6 (ratios, emergent)"]
        assert s.mean_abs_rel_err < 0.125
        assert s.max_abs_rel_err < 0.55  # the known BT@64 deviation

    def test_compilers_within_bounds(self, scores):
        s = scores["Tables 7+8 (compilers)"]
        assert s.mean_abs_rel_err < 0.055
        assert s.max_abs_rel_err < 0.28

    def test_table1_profile_within_bounds(self, scores):
        s = scores["Table 1 stall profile"]
        assert s.mean_abs_rel_err < 0.045
        assert s.max_abs_rel_err < 0.20

    def test_summary_formatting(self, scores):
        text = scores["Table 4 (64-core, emergent)"].summary()
        assert "pts" in text and "%" in text
