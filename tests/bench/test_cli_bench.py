"""``repro bench`` end to end: real pytest subprocesses over a toy suite.

A two-suite toy bench directory (built in ``tmp_path``) stands in for
``benchmarks/``: same conftest wiring (fixtures imported from
``repro.bench.fixtures``), real subprocess runs, real baseline writes.
A ``TOY_SLOW`` environment knob injects a deliberate >=2x slowdown into
one suite so the gate is exercised for real: slowdown -> exit 1, clean
re-run -> exit 0, and the baseline file never changes under
``--check``.
"""

import os
from pathlib import Path

import pytest

import repro
from repro.bench.schema import load_artifact
from repro.cli import main

_CONFTEST = """\
from repro.bench.fixtures import (  # noqa: F401
    bench_artifact,
    escalate_until,
    time_best_of,
)
"""

_BENCH_ALPHA = """\
import os


def _work():
    slow = 60 if os.environ.get("TOY_SLOW") else 1
    return sum(range(40_000 * slow))


def test_alpha_work(time_best_of, bench_artifact):
    work_s, total = time_best_of("alpha.work", _work, 5)
    assert total > 0
    bench_artifact("alpha.work", work_s=work_s, sums_per_s=1.0 / work_s)
"""

_BENCH_BETA = """\
def test_beta_work(time_best_of, bench_artifact):
    work_s, total = time_best_of("beta.work", lambda: sum(range(50_000)), 5)
    assert total > 0
    bench_artifact("beta.work", work_s=work_s)
"""


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """A toy bench tree + CLI argument prefix aimed at it."""
    bench_dir = tmp_path / "toybench"
    bench_dir.mkdir()
    (bench_dir / "conftest.py").write_text(_CONFTEST)
    (bench_dir / "bench_alpha.py").write_text(_BENCH_ALPHA)
    (bench_dir / "bench_beta.py").write_text(_BENCH_BETA)
    # The subprocess must be able to import repro from anywhere.
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH", src if not existing else src + os.pathsep + existing
    )
    monkeypatch.delenv("TOY_SLOW", raising=False)
    monkeypatch.delenv("REPRO_BENCH_ARTIFACT", raising=False)
    args = [
        "bench",
        "--bench-dir", str(bench_dir),
        "--artifact", str(tmp_path / "bench_artifact.json"),
        "--no-fidelity",
    ]
    return {
        "args": args,
        "artifact": tmp_path / "bench_artifact.json",
        "bench_dir": bench_dir,
    }


class TestList:
    def test_lists_toy_suites(self, toy, capsys):
        assert main([*toy["args"], "--list"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out

    def test_empty_dir_errors(self, tmp_path, capsys):
        code = main(["bench", "--bench-dir", str(tmp_path), "--list"])
        assert code == 2
        assert "no bench suites" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--history", "h"], ["--rounds", "2"], ["--check", "--bless"]]
    )
    def test_removed_flags_rejected(self, argv, capsys):
        # One committed baseline: no history dir, a fixed escalation
        # budget, and re-recording is plain `repro bench`.
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRecord:
    def test_full_run_records_every_suite(self, toy, capsys):
        assert main(toy["args"]) == 0
        artifact = load_artifact(toy["artifact"])
        assert {e["label"] for e in artifact["entries"]} == {
            "alpha.work", "beta.work",
        }
        assert artifact["run"]["suites"] == ["alpha", "beta"]
        assert "recorded 2 entries from 2 suite(s)" in capsys.readouterr().out

    def test_subset_run_preserves_other_suites_entries(self, toy):
        assert main(toy["args"]) == 0
        before = load_artifact(toy["artifact"])
        beta_before = next(
            e for e in before["entries"] if e["label"] == "beta.work"
        )
        assert main([*toy["args"], "alpha"]) == 0
        after = load_artifact(toy["artifact"])
        by_label = {e["label"]: e for e in after["entries"]}
        assert set(by_label) == {"alpha.work", "beta.work"}
        assert by_label["beta.work"] == beta_before  # untouched
        assert after["run"]["suites"] == ["alpha"]

    def test_unknown_suite_exits_2(self, toy, capsys):
        assert main([*toy["args"], "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err
        assert main([*toy["args"], "--check", "nope"]) == 2
        assert not toy["artifact"].exists()


class TestCheck:
    def test_seeds_then_slowdown_fails_then_clean_passes(
        self, toy, capsys, monkeypatch
    ):
        # 1. No baseline: pass with every field seeded, nothing written.
        assert main([*toy["args"], "--check"]) == 0
        out = capsys.readouterr().out
        assert "3 seeded" in out and "verdict: pass" in out
        assert not toy["artifact"].exists()

        # 2. Record the baseline.
        assert main(toy["args"]) == 0
        baseline = toy["artifact"].read_bytes()
        capsys.readouterr()

        # 3. Injected >=2x slowdown (60x here): loud non-zero exit, and
        #    the baseline is byte-identical afterwards.
        monkeypatch.setenv("TOY_SLOW", "1")
        assert main([*toy["args"], "--check"]) == 1
        out = capsys.readouterr().out
        assert "regression" in out
        assert "verdict: REGRESSION" in out
        assert "escalation rounds used: 2" in out
        assert toy["artifact"].read_bytes() == baseline

        # 4. Clean re-run: exit 0, baseline still untouched.
        monkeypatch.delenv("TOY_SLOW")
        assert main([*toy["args"], "--check"]) == 0
        assert "verdict: pass" in capsys.readouterr().out
        assert toy["artifact"].read_bytes() == baseline
