"""The shared measurement helpers: elapsed floor, recorder, suite tags.

The zero-elapsed bug this locks down: sub-resolution timed regions used
to return ``0.0`` from the best-of-N helper and every downstream
``n / elapsed`` throughput ratio raised ``ZeroDivisionError``.  The
helper now re-measures and then clamps to :data:`MIN_ELAPSED_S`.
"""

import json

from repro.bench.fixtures import (
    MIN_ELAPSED_S,
    ArtifactRecorder,
    current_suite,
    escalate_until_impl,
    time_best_of_impl,
)
from repro.bench.schema import load_artifact


def _fake_timer(values):
    """A timer yielding canned elapsed times (and counting calls)."""
    calls = []

    def timer(body):
        result = body()
        elapsed = values[min(len(calls), len(values) - 1)]
        calls.append(elapsed)
        return elapsed, result

    timer.calls = calls
    return timer


class TestTimeBestOf:
    def test_returns_best_and_result(self):
        timer = _fake_timer([0.5, 0.2, 0.4])
        best, result = time_best_of_impl("x", lambda: 42, 3, timer=timer)
        assert best == 0.2
        assert result == 42

    def test_zero_elapsed_never_returned(self):
        """The ZeroDivisionError regression test."""
        timer = _fake_timer([0.0])  # timer can never resolve the region
        best, _ = time_best_of_impl("x", lambda: None, 2, timer=timer)
        assert best == MIN_ELAPSED_S
        assert 1.0 / best > 0  # the downstream ratio is safe by construction
        # It spent the retry budget before clamping: 2 reps x (1 + 3 rounds).
        assert len(timer.calls) == 8

    def test_remeasures_until_measurable(self):
        # First round unresolvable, second round measurable: the helper
        # re-runs and returns the real observation, not the floor.
        timer = _fake_timer([0.0, 0.0, 0.003, 0.004])
        best, _ = time_best_of_impl("x", lambda: None, 2, timer=timer)
        assert best == 0.003
        assert len(timer.calls) == 4

    def test_setup_runs_outside_timed_region(self):
        made = []

        def setup():
            made.append(object())
            return made[-1]

        seen = []
        timer = _fake_timer([0.1])
        time_best_of_impl("x", seen.append, 3, setup=setup, timer=timer)
        assert seen == made and len(made) == 3

    def test_calls_per_sample_report_per_call_time(self):
        ran = []
        timer = _fake_timer([0.08, 0.04])
        best, result = time_best_of_impl(
            "x", lambda: ran.append(1) or len(ran), 2, timer=timer, calls=4
        )
        assert best == 0.01  # the best sample over its 4 calls
        assert len(ran) == 8 and result == 8
        assert len(timer.calls) == 2

    def test_real_timer_obeys_floor(self):
        # No injected timer: the obs.host_timer path, with an empty body
        # (the fastest region possible), still respects the floor.
        best, _ = time_best_of_impl("floor_probe", lambda: None, 1)
        assert best >= MIN_ELAPSED_S


class TestEscalateUntil:
    def test_no_rounds_when_margin_met(self):
        assert escalate_until_impl(lambda: 5.0, lambda: None, margin=3.0,
                                   max_rounds=4) == 0

    def test_rounds_until_cleared(self):
        state = {"v": 1.0}

        def remeasure():
            state["v"] += 1.0

        rounds = escalate_until_impl(
            lambda: state["v"], remeasure, margin=3.0, max_rounds=10
        )
        assert rounds == 2 and state["v"] == 3.0

    def test_budget_exhausted(self):
        assert escalate_until_impl(lambda: 0.0, lambda: None, margin=1.0,
                                   max_rounds=3) == 3


class TestCurrentSuite:
    def test_suite_from_pytest_current_test(self):
        env = {"PYTEST_CURRENT_TEST": "benchmarks/bench_store.py::test_x (call)"}
        assert current_suite(env) == "store"

    def test_windows_separator(self):
        env = {"PYTEST_CURRENT_TEST": r"benchmarks\bench_fig1_stream.py::t (call)"}
        assert current_suite(env) == "fig1_stream"

    def test_none_outside_bench(self):
        assert current_suite({"PYTEST_CURRENT_TEST": "tests/test_x.py::t"}) is None
        assert current_suite({}) is None


class TestArtifactRecorder:
    def test_last_recording_wins_per_label(self):
        rec = ArtifactRecorder()
        rec.record("x", suite="s", v_s=1.0)
        rec.record("x", suite="s", v_s=0.8)
        assert [e["v_s"] for e in rec.entries()] == [0.8]

    def test_without_env_var_writes_no_file(self, tmp_path, monkeypatch):
        """A plain ``pytest benchmarks/`` never touches the baseline."""
        monkeypatch.delenv("REPRO_BENCH_ARTIFACT", raising=False)
        monkeypatch.chdir(tmp_path)
        rec = ArtifactRecorder()
        rec.record("x", suite="s", v_s=1.0)
        assert rec.flush() is None
        assert list(tmp_path.rglob("*")) == []

    def test_flush_writes_exactly_the_session_entries(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text(json.dumps({
            "schema_version": 2, "run": {},
            "entries": [{"label": "beta.y", "suite": "beta", "y_s": 2.0}],
        }))
        monkeypatch.setenv("REPRO_BENCH_ARTIFACT", str(target))
        rec = ArtifactRecorder()
        rec.record("alpha.x", suite="alpha", x_s=0.9)
        assert rec.flush() == target
        artifact = load_artifact(target)
        assert artifact["entries"] == [
            {"label": "alpha.x", "suite": "alpha", "x_s": 0.9}
        ]

    def test_flush_output_is_valid_sorted_json(self, tmp_path, monkeypatch):
        path = tmp_path / "a.json"
        monkeypatch.setenv("REPRO_BENCH_ARTIFACT", str(path))
        rec = ArtifactRecorder()
        rec.record("x", suite="s", v_s=1.0)
        rec.flush()
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema_version"] == 2
