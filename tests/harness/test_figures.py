"""Every figure regenerator builds with the paper's qualitative shape."""

import pytest

from repro.harness.figures import FIGURE_BUILDERS, build_figure


class TestAllFigures:
    @pytest.mark.parametrize("number", sorted(FIGURE_BUILDERS))
    def test_builds_and_renders(self, number):
        fig = build_figure(number)
        assert fig.number == number
        assert fig.series
        text = fig.render()
        assert f"Figure {number}" in text
        assert fig.to_csv().startswith("series,x,y")

    def test_unknown_number(self):
        with pytest.raises(KeyError):
            build_figure(7)


class TestShapes:
    def test_fig1_two_series_with_gap(self):
        fig = build_figure(1)
        assert set(fig.series) == {"Sophon SG2042", "Sophon SG2044"}
        end42 = fig.series["Sophon SG2042"][-1][1]
        end44 = fig.series["Sophon SG2044"][-1][1]
        assert end44 > 2.7 * end42

    def test_scaling_figures_have_five_machines(self):
        fig = build_figure(4)
        assert len(fig.series) == 5

    def test_sweeps_respect_core_counts(self):
        fig = build_figure(2)
        assert fig.series["Intel Skylake"][-1][0] == 26
        assert fig.series["Marvell ThunderX2"][-1][0] == 32
        assert fig.series["Sophon SG2044"][-1][0] == 64

    def test_fig5_cg_whole_chip_crossover(self):
        fig = build_figure(5)
        sg = dict(fig.series["Sophon SG2044"])
        tx = dict(fig.series["Marvell ThunderX2"])
        assert tx[16] > sg[16]
        assert sg[64] > tx[32]


class TestPaperShapes:
    """The paper's findings, read off the built figures' series."""

    @staticmethod
    def _series(number, label):
        return dict(build_figure(number).series[label])

    @pytest.mark.parametrize("number", [2, 3, 4, 5, 6])
    def test_sg2044_beats_sg2042_at_64_cores(self, number):
        sg44 = self._series(number, "Sophon SG2044")
        sg42 = self._series(number, "Sophon SG2042")
        assert sg44[64] > sg42[64]

    def test_fig1_sg2042_plateaus_from_8_cores(self):
        sg42 = self._series(1, "Sophon SG2042")
        assert sg42[64] < 1.35 * sg42[8]

    def test_fig2_is_sg2042_plateaus_sg2044_keeps_scaling(self):
        sg42 = self._series(2, "Sophon SG2042")
        sg44 = self._series(2, "Sophon SG2044")
        assert sg42[64] < 1.25 * sg42[16]
        assert sg44[64] > 2.5 * sg44[16]

    def test_fig4_ep_sg2044_within_20pct_of_skylake_at_16(self):
        sg44 = self._series(4, "Sophon SG2044")
        sky = self._series(4, "Intel Skylake")
        assert abs(sg44[16] - sky[16]) / sky[16] < 0.2
