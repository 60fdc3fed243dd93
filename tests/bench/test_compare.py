"""Direction detection and delta classification against a baseline."""

from repro.bench.compare import (
    BASE_MARGIN,
    compare_entries,
    field_direction,
    regressions,
    render_deltas,
)


def _baseline(**fields_by_label):
    return {label: {"label": label, **fields} for label, fields in fields_by_label.items()}


class TestFieldDirection:
    def test_durations_and_errors_lower_better(self):
        assert field_direction("get_s") == "lower"
        assert field_direction("elapsed_s") == "lower"
        assert field_direction("mean_abs_rel_err") == "lower"

    def test_rates_and_speedups_higher_better(self):
        # _per_s also ends in _s: the higher-better check must win.
        assert field_direction("gets_per_s") == "higher"
        assert field_direction("speedup") == "higher"
        assert field_direction("batch_speedup") == "higher"

    def test_metadata_ungated(self):
        assert field_direction("n_configs") is None
        assert field_direction("label") is None
        assert field_direction("fast_fraction") is None


class TestCompareEntries:
    def test_seeded_without_baseline(self):
        deltas = compare_entries([{"label": "x", "suite": "s", "run_s": 1.0}], {})
        assert [d.verdict for d in deltas] == ["seeded"]
        assert regressions(deltas) == []

    def test_seeded_for_field_missing_from_baseline_entry(self):
        deltas = compare_entries(
            [{"label": "x", "run_s": 1.0, "new_s": 1.0}], _baseline(x={"run_s": 1.0})
        )
        assert {d.field: d.verdict for d in deltas} == {"new_s": "seeded", "run_s": "ok"}

    def test_2x_slowdown_is_regression(self):
        """Acceptance bar: a clean 2x slowdown always fires."""
        deltas = compare_entries(
            [{"label": "x", "run_s": 2.0}], _baseline(x={"run_s": 1.0})
        )
        assert [d.verdict for d in deltas] == ["regression"]

    def test_margin_edges(self):
        base = _baseline(x={"run_s": 1.0})
        inside = compare_entries([{"label": "x", "run_s": 1.0 + BASE_MARGIN}], base)
        beyond = compare_entries([{"label": "x", "run_s": 1.3}], base)
        assert [d.verdict for d in inside] == ["ok"]
        assert [d.verdict for d in beyond] == ["regression"]

    def test_higher_better_regression_direction(self):
        base = _baseline(x={"ops_per_s": 100.0})
        slow = compare_entries([{"label": "x", "ops_per_s": 40.0}], base)
        fast = compare_entries([{"label": "x", "ops_per_s": 200.0}], base)
        assert [d.verdict for d in slow] == ["regression"]
        assert [d.verdict for d in fast] == ["improved"]

    def test_improvement_never_fails(self):
        deltas = compare_entries(
            [{"label": "x", "run_s": 0.2}], _baseline(x={"run_s": 1.0})
        )
        assert [d.verdict for d in deltas] == ["improved"]
        assert regressions(deltas) == []

    def test_zero_error_baseline_is_gated(self):
        # An anchored fidelity error of exactly 0 must not read as
        # "no baseline": any error at all is a regression from it.
        base = _baseline(f={"mean_abs_rel_err": 0.0})
        same = compare_entries([{"label": "f", "mean_abs_rel_err": 0.0}], base)
        worse = compare_entries([{"label": "f", "mean_abs_rel_err": 0.01}], base)
        assert [d.verdict for d in same] == ["ok"]
        assert [d.verdict for d in worse] == ["regression"]

    def test_ungated_and_non_numeric_fields_skipped(self):
        deltas = compare_entries(
            [{"label": "x", "n_rows": 5, "verified_s": True, "note": "hi",
              "run_s": 1.0}],
            {},
        )
        assert [d.field for d in deltas] == ["run_s"]

    def test_render_mentions_counts_and_regressions(self):
        deltas = compare_entries(
            [{"label": "x", "run_s": 5.0}, {"label": "y", "run_s": 1.0}],
            _baseline(x={"run_s": 1.0}),
        )
        text = render_deltas(deltas)
        assert "1 regression(s)" in text
        assert "1 seeded" in text
        assert "margin 25%" in text
        assert "x" in text and "5" in text
