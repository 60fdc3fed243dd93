"""Every table regenerator builds and carries the right structure."""

import pytest

from repro.harness.tables import TABLE_BUILDERS, build_table


class TestAllTables:
    @pytest.mark.parametrize("number", sorted(TABLE_BUILDERS))
    def test_builds_and_renders(self, number):
        if number == 1:
            result = TABLE_BUILDERS[1](n_accesses=20_000)
        else:
            result = build_table(number)
        assert result.number == number
        assert result.rows
        text = result.render()
        assert f"Table {number}" in text
        csv = result.to_csv()
        assert csv.count("\n") == len(result.rows) + 1

    def test_unknown_number(self):
        with pytest.raises(KeyError):
            build_table(9)


class TestSpecificShapes:
    def test_table2_has_dnr_for_d1_ft(self):
        t = build_table(2)
        ft_row = next(r for r in t.rows if r[0] == "FT")
        assert None in ft_row  # the AllWinner D1 cell

    def test_table3_five_kernels(self):
        t = build_table(3)
        assert [r[0] for r in t.rows] == ["IS", "MG", "EP", "CG", "FT"]

    def test_table4_carries_paper_ratio_column(self):
        t = build_table(4)
        is_row = next(r for r in t.rows if r[0] == "IS")
        assert is_row[-1] == pytest.approx(4.91, abs=0.01)

    def test_table5_lists_the_five_hpc_cpus(self):
        t = build_table(5)
        assert len(t.rows) == 5
        labels = [r[0] for r in t.rows]
        assert "Sophon SG2044" in labels

    def test_table6_rows_per_app_and_core_count(self):
        t = build_table(6)
        assert len(t.rows) == 3 * 4  # {BT,LU,SP} x {16,26,32,64}

    def test_table6_blank_beyond_core_counts(self):
        t = build_table(6)
        row64 = next(r for r in t.rows if r[0] == "BT" and r[1] == 64)
        # Skylake (26 cores) and TX2 (32) cannot run 64 threads.
        assert row64[6] is None or row64[8] is None

    def test_table7_cg_vec_collapse_visible(self):
        t = build_table(7)
        cg = next(r for r in t.rows if r[0] == "CG")
        gcc15_vec, gcc15_novec = cg[3], cg[5]
        assert gcc15_vec < 0.6 * gcc15_novec


class TestPaperShapes:
    """The paper's findings, read off the built tables' cells."""

    def test_table1_ep_no_ddr_trouble_mg_most_bandwidth_bound(self):
        t = TABLE_BUILDERS[1](n_accesses=30_000)
        rows = {r[0]: r for r in t.rows}
        assert rows["EP"][3] <= 2
        assert rows["MG"][5] == max(r[5] for r in t.rows)

    def test_table2_sg2044_beats_every_other_board(self):
        for row in build_table(2).rows:
            others = [v for v in row[2::2] if v is not None]
            assert others and all(v < row[1] for v in others), row[0]

    def test_table3_ratios_led_by_ep_or_ft(self):
        # Paper: 1.08x (IS) to 1.30x (EP); EP and FT (1.28x) lead within
        # run-to-run noise of each other.
        ratios = {r[0]: r[3] for r in build_table(3).rows}
        assert min(ratios.values()) > 1.0
        assert max(ratios, key=ratios.get) in ("EP", "FT")
        assert ratios["EP"] > 1.25

    def test_table4_is_gains_most_ep_least(self):
        # The paper's headline: 1.52x (EP) to 4.91x (IS).
        ratios = {r[0]: r[3] for r in build_table(4).rows}
        assert max(ratios, key=ratios.get) == "IS"
        assert ratios["IS"] > 4.0
        assert min(ratios, key=ratios.get) == "EP"
        assert 1.3 < ratios["EP"] < 1.8

    def test_table5_vector_isas(self):
        vectors = {r[0]: r[5] for r in build_table(5).rows}
        assert vectors["Sophon SG2044"] == "RVV v1.0.0"
        assert vectors["Sophon SG2042"] == "RVV v0.7.1"

    def test_table6_sg2042_slower_and_gap_widens_with_cores(self):
        rows = build_table(6).rows
        assert all(r[2] < 1.0 for r in rows if r[2] is not None)
        for app in ("BT", "LU", "SP"):
            by_cores = {r[1]: r[2] for r in rows if r[0] == app}
            assert by_cores[64] < by_cores[16], app

    def test_table7_vectorisation_never_hurts_outside_cg(self):
        # 15.2-vec >= 15.2-novec; EP is a dead heat in the paper too
        # (40.76 vs 40.75), hence the 3% allowance.
        for row in build_table(7).rows:
            if row[0] != "CG":
                assert row[3] >= 0.97 * row[5], row[0]

    def test_table8_is_gcc12_penalty_and_milder_cg_collapse(self):
        rows = {r[0]: r for r in build_table(8).rows}
        # GCC 12.3.1 leaves >15% of the 64-core IS rate on the table.
        assert rows["IS"][1] < 0.85 * rows["IS"][3]
        assert rows["CG"][3] < 0.75 * rows["CG"][5]
