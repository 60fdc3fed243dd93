"""The regression gate (``check_run``) and baseline rewrite (``record_run``).

A fake ``run_fn`` stands in for the pytest subprocess, so these tests
exercise the gate's decision logic -- seeding, margins, escalation,
fingerprint matching, baseline hygiene -- deterministically and fast.
"""

import json
import platform

import pytest

from repro.bench import schema
from repro.bench.runner import (
    ESCALATION_ROUNDS,
    BenchError,
    check_run,
    discover_suites,
    record_run,
)
from repro.bench.schema import load_artifact


def _run_fn(responses):
    """A fake runner yielding canned entries per call, recording calls."""
    calls = []

    def run(suites):
        calls.append(suites)
        response = responses[min(len(calls), len(responses)) - 1]
        return [dict(e) for e in response]

    run.calls = calls
    return run


def _entry(work_s, label="s.work", suite="s"):
    return {"label": label, "suite": suite, "work_s": work_s}


@pytest.fixture
def bench_dir(tmp_path):
    # Real suite files so escalation has something to re-run; the fake
    # run_fn never actually executes them.
    d = tmp_path / "benchmarks"
    d.mkdir()
    for suite in ("s", "t"):
        (d / f"bench_{suite}.py").write_text("def test_noop():\n    pass\n")
    return d


def _seed(bench_dir, entries, fidelity=False):
    record_run(bench_dir, fidelity=fidelity, run_fn=_run_fn([entries]))
    return bench_dir / "bench_artifact.json"


def _move_to_other_machine(artifact_path):
    data = json.loads(artifact_path.read_text())
    data["run"]["machine"] = {"platform": "some-other-host", "cpu_count": 512}
    artifact_path.write_text(json.dumps(data))


class TestCheckRun:
    def test_missing_baseline_passes_as_seeded(self, bench_dir):
        deltas, escalations, code = check_run(
            bench_dir, fidelity=False, run_fn=_run_fn([[_entry(1.0)]])
        )
        assert code == 0
        assert escalations == 0
        assert [d.verdict for d in deltas] == ["seeded"]
        assert not (bench_dir / "bench_artifact.json").exists()

    def test_clean_run_passes(self, bench_dir):
        _seed(bench_dir, [_entry(1.0)])
        deltas, _, code = check_run(
            bench_dir, fidelity=False, run_fn=_run_fn([[_entry(1.1)]])
        )
        assert code == 0
        assert [d.verdict for d in deltas] == ["ok"]

    def test_check_leaves_baseline_byte_identical(self, bench_dir):
        path = _seed(bench_dir, [_entry(1.0)])
        before = path.read_bytes()
        for work_s in (1.0, 2.0, 0.1):  # pass, fail, improve
            check_run(bench_dir, fidelity=False, run_fn=_run_fn([[_entry(work_s)]]))
        assert path.read_bytes() == before

    def test_2x_slowdown_fails(self, bench_dir):
        _seed(bench_dir, [_entry(1.0)])
        run = _run_fn([[_entry(2.0)]])  # slow on every round
        deltas, escalations, code = check_run(bench_dir, fidelity=False, run_fn=run)
        assert code == 1
        assert escalations == ESCALATION_ROUNDS  # it re-measured first
        assert [d.verdict for d in deltas] == ["regression"]

    def test_escalation_clears_transient_slowdown(self, bench_dir):
        _seed(bench_dir, [_entry(1.0), _entry(1.0, "t.work", "t")])
        # First measurement 3x slow (host-load epoch), re-measurement clean.
        run = _run_fn(
            [[_entry(3.0), _entry(1.0, "t.work", "t")], [_entry(1.05)]]
        )
        deltas, escalations, code = check_run(bench_dir, fidelity=False, run_fn=run)
        assert code == 0
        assert escalations == 1
        assert run.calls == [None, ["s"]]  # re-ran only the suspect suite
        assert [d.verdict for d in deltas] == ["ok", "ok"]

    def test_fold_keeps_best_across_rounds(self, bench_dir):
        _seed(bench_dir, [_entry(1.0)])
        # Re-measurement is WORSE: the fold must keep the first (better)
        # observation, not regress the entry further.
        run = _run_fn([[_entry(3.0)], [_entry(5.0)], [_entry(5.0)]])
        deltas, _, code = check_run(bench_dir, fidelity=False, run_fn=run)
        assert code == 1
        assert deltas[0].observed == 3.0

    def test_unrunnable_suite_fails_without_escalation(self, bench_dir):
        # The regressed label's suite has no bench_*.py file: nothing to
        # re-run, the verdict stands immediately.
        _seed(bench_dir, [_entry(1.0, "gone.work", "gone")])
        run = _run_fn([[_entry(2.0, "gone.work", "gone")]])
        _, escalations, code = check_run(bench_dir, fidelity=False, run_fn=run)
        assert code == 1
        assert escalations == 0
        assert run.calls == [None]

    def test_fidelity_regression_fails(self, bench_dir):
        path = _seed(bench_dir, [_entry(1.0)], fidelity=True)
        data = json.loads(path.read_text())
        fid = next(e for e in data["entries"] if e["suite"] == "fidelity")
        fid["max_abs_rel_err"] = fid["max_abs_rel_err"] / 10
        path.write_text(json.dumps(data))
        deltas, escalations, code = check_run(
            bench_dir, fidelity=True, run_fn=_run_fn([[_entry(1.0)]])
        )
        assert code == 1
        assert escalations == 0  # fidelity is deterministic: never re-run
        assert [(d.label, d.field) for d in deltas if d.verdict == "regression"] == [
            (fid["label"], "max_abs_rel_err")
        ]

    def test_other_machine_skips_speed_but_gates_fidelity(self, bench_dir):
        path = _seed(bench_dir, [_entry(1.0)], fidelity=True)
        _move_to_other_machine(path)
        run = _run_fn([[_entry(5.0)]])  # 5x "slower": another host's number

        deltas, _, code = check_run(bench_dir, fidelity=True, run_fn=run)
        assert code == 0
        by_key = {(d.label, d.field): d for d in deltas}
        assert by_key[("s.work", "work_s")].verdict == "seeded"
        fid = [d for d in deltas if d.label.startswith("fidelity.")]
        assert fid and all(d.verdict == "ok" for d in fid)

        # A +30% drift of the Table 6 ratio error still fails here.
        data = json.loads(path.read_text())
        t6 = next(
            e for e in data["entries"]
            if e["label"] == "fidelity.table_6_ratios_emergent"
        )
        t6["mean_abs_rel_err"] = t6["mean_abs_rel_err"] / 1.3
        path.write_text(json.dumps(data))
        deltas, _, code = check_run(bench_dir, fidelity=True, run_fn=run)
        assert code == 1
        assert [(d.label, d.field) for d in deltas if d.verdict == "regression"] == [
            ("fidelity.table_6_ratios_emergent", "mean_abs_rel_err")
        ]
        assert run.calls == [None, None]  # no speed suite was re-measured

    def test_kernel_build_change_still_compares_speed(self, bench_dir, monkeypatch):
        """Same CPU, another kernel build: speed fields are still gated."""
        _seed(bench_dir, [_entry(1.0)])
        build = "6.18.44-fc-v999"
        monkeypatch.setattr(platform, "release", lambda: build)
        monkeypatch.setattr(platform, "version", lambda: f"#1 SMP {build}")
        monkeypatch.setattr(
            platform, "platform", lambda *a, **k: f"Linux-{build}-x86_64-with-glibc2.36"
        )
        deltas, _, code = check_run(
            bench_dir, fidelity=False, run_fn=_run_fn([[_entry(1.1)]])
        )
        assert code == 0
        assert [d.verdict for d in deltas] == ["ok"]

    def test_other_cpu_model_seeds_speed(self, bench_dir, monkeypatch):
        _seed(bench_dir, [_entry(1.0)])
        monkeypatch.setattr(schema, "_cpu_model", lambda: "Some Other CPU @ 9.99GHz")
        deltas, _, code = check_run(
            bench_dir, fidelity=False, run_fn=_run_fn([[_entry(5.0)]])
        )
        assert code == 0
        assert [d.verdict for d in deltas] == ["seeded"]


class TestRecordRun:
    def test_record_writes_the_baseline(self, bench_dir):
        record_run(bench_dir, fidelity=False, run_fn=_run_fn([[_entry(1.0)]]))
        record_run(bench_dir, fidelity=False, run_fn=_run_fn([[_entry(1.1)]]))
        artifact = load_artifact(bench_dir / "bench_artifact.json")
        assert artifact["schema_version"] == 2
        assert artifact["run"]["suites"] == ["s"]
        assert [e["work_s"] for e in artifact["entries"]] == [1.1]

    def test_run_meta_sums_in_bench_escalation_rounds(self, bench_dir):
        _, run_meta = record_run(
            bench_dir, fidelity=False,
            run_fn=_run_fn([[
                {**_entry(1.0), "extra_rounds": 2},
                {**_entry(1.0, "t.work", "t"), "extra_rounds": 1},
            ]]),
        )
        assert run_meta["escalation_rounds"] == 3
        assert run_meta["suites"] == ["s", "t"]

    def test_subset_run_replaces_only_its_suites_rows(self, bench_dir):
        path = _seed(
            bench_dir,
            [_entry(1.0), _entry(1.0, "s.old", "s"), _entry(2.0, "t.work", "t")],
        )
        t_before = next(e for e in load_artifact(path)["entries"] if e["suite"] == "t")
        record_run(
            bench_dir, suites=["s"], fidelity=False,
            run_fn=_run_fn([[_entry(0.5)]]),
        )
        entries = load_artifact(path)["entries"]
        # s's rows are exactly this run's (a label s stopped recording
        # drops out); t's row is untouched; rows stay sorted by label.
        assert [e["label"] for e in entries] == ["s.work", "t.work"]
        assert entries[0]["work_s"] == 0.5
        assert entries[1] == t_before

    def test_full_run_drops_deleted_suites_and_keeps_fidelity(self, bench_dir):
        path = _seed(bench_dir, [_entry(1.0, "gone.work", "gone")], fidelity=True)
        fidelity_before = [
            e for e in load_artifact(path)["entries"] if e["suite"] == "fidelity"
        ]
        record_run(bench_dir, fidelity=False, run_fn=_run_fn([[_entry(1.0)]]))
        entries = load_artifact(path)["entries"]
        assert [e for e in entries if e["suite"] != "fidelity"] == [_entry(1.0)]
        assert [e for e in entries if e["suite"] == "fidelity"] == fidelity_before

    def test_subset_run_refused_on_another_machines_baseline(self, bench_dir):
        path = _seed(bench_dir, [_entry(1.0), _entry(2.0, "t.work", "t")])
        _move_to_other_machine(path)
        before = path.read_bytes()
        run = _run_fn([[_entry(0.5)]])
        with pytest.raises(BenchError, match="another machine"):
            record_run(bench_dir, suites=["s"], fidelity=False, run_fn=run)
        assert run.calls == []
        assert path.read_bytes() == before
        # A run of every suite re-records it on this machine.
        record_run(bench_dir, fidelity=False, run_fn=run)
        assert [e["label"] for e in load_artifact(path)["entries"]] == ["s.work"]

    def test_fidelity_entries_folded_in(self, bench_dir):
        entries, run_meta = record_run(
            bench_dir, fidelity=True, run_fn=_run_fn([[_entry(1.0)]])
        )
        fid = [e for e in entries if e["suite"] == "fidelity"]
        assert len(fid) == 5
        assert all(e["label"].startswith("fidelity.") for e in fid)
        assert all("mean_abs_rel_err" in e for e in fid)
        assert "fidelity" in run_meta["suites"]
        # Deterministic: a second run repeats the numbers bit for bit.
        entries2, _ = record_run(
            bench_dir, fidelity=True, run_fn=_run_fn([[_entry(1.0)]])
        )
        assert [e for e in entries2 if e["suite"] == "fidelity"] == fid

    def test_unknown_suite_raises(self, bench_dir):
        with pytest.raises(BenchError, match="unknown suite"):
            record_run(bench_dir, suites=["nope"], fidelity=False)
        assert not (bench_dir / "bench_artifact.json").exists()


class TestDiscoverSuites:
    def test_stems_mapped_to_files(self, tmp_path):
        (tmp_path / "bench_alpha.py").write_text("")
        (tmp_path / "bench_beta.py").write_text("")
        (tmp_path / "conftest.py").write_text("")
        suites = discover_suites(tmp_path)
        assert sorted(suites) == ["alpha", "beta"]
        assert suites["alpha"].name == "bench_alpha.py"

    def test_missing_dir_is_empty(self, tmp_path):
        assert discover_suites(tmp_path / "nope") == {}
