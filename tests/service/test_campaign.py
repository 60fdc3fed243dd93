"""Campaign runner: validation, manifests, idempotence and crash-resume.

The centrepiece is the crash drill: a deterministic ``repro.faults``
plan kills the campaign between jobs (the ``campaign.job`` probe for the
second job raises), leaving the first job's artifact and journal on
disk.  Restarting the same campaign against that directory with a fresh
engine must resume from the journals -- ``campaign.resumed_entries``
counts the preloaded families -- and finish with an artifact set
byte-identical to a never-interrupted reference run.
"""

import json

import pytest

from repro import faults, obs
from repro.core.sweep import SweepEngine
from repro.faults import FaultPlan, InjectedTransientError
from repro.service import (
    ScenarioError,
    load_scenario,
    plan_campaign,
    run_campaign,
)
from repro.store import ResultStore

SCENARIO_YAML = """\
name: drill
jobs:
  - name: wide
    kind: sweep
    machines: [sg2044]
    kernels: [ep, is]
    threads: [1, 2]
  - name: deep
    kind: sweep
    machines: [sg2044]
    kernels: [cg]
    threads: [1, 2, 4]
  - name: whatif-ep
    kind: whatif
    kernel: ep
    threads: 8
"""


@pytest.fixture
def scenario(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO_YAML)
    return load_scenario(path)


class TestScenarioValidation:
    def _load(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        return load_scenario(path)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("- just\n- a list\n", "mapping"),
            ("jobs: []\n", "name"),
            ("name: x\n", "jobs"),
            ("name: x\njobs: []\n", "jobs"),
            ("name: x\njobs:\n  - kind: table\n    number: 6\n", "name"),
            (
                "name: x\njobs:\n  - name: a/b\n    kind: table\n    number: 6\n",
                "file stem",
            ),
            (
                "name: x\njobs:\n"
                "  - name: a\n    kind: table\n    number: 6\n"
                "  - name: a\n    kind: table\n    number: 3\n",
                "duplicate",
            ),
            ("name: x\njobs:\n  - name: a\n    kind: table\n    number: 99\n", "number"),
            ("name: x\njobs:\n  - name: a\n    kind: nope\n", "kind"),
            ("name: x\njobs:\n  - name: a\n    {{invalid yaml\n", "YAML"),
            (
                "name: x\njobs:\n"
                "  - name: a\n    kind: table\n    number: 6\n    needs: [a]\n",
                "needs itself",
            ),
            (
                "name: x\njobs:\n"
                "  - name: a\n    kind: table\n    number: 6\n    needs: [ghost]\n",
                "unknown job",
            ),
            (
                "name: x\njobs:\n"
                "  - name: a\n    kind: table\n    number: 6\n    needs: [b]\n"
                "  - name: b\n    kind: table\n    number: 3\n    needs: [a]\n",
                "dependency cycle",
            ),
            (
                "name: x\njobs:\n"
                "  - name: a\n    kind: table\n    number: 6\n    needs: [3]\n",
                "list of job names",
            ),
        ],
    )
    def test_rejects(self, tmp_path, text, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            self._load(tmp_path, text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nowhere.yaml")

    def test_valid_scenario_parses(self, scenario):
        assert scenario.name == "drill"
        assert [job.name for job in scenario.jobs] == ["wide", "deep", "whatif-ep"]


def test_plan_campaign_estimates_without_running(scenario):
    rows = plan_campaign(scenario, SweepEngine())
    assert [row["name"] for row in rows] == ["wide", "deep", "whatif-ep"]
    wide, deep, whatif = rows
    assert wide["configs"] == 4 and wide["families"] == 2
    assert deep["configs"] == 3 and deep["families"] == 1
    assert whatif["configs"] == 0
    assert all(row["job_id"].startswith(row["kind"] + "-") for row in rows)


def _artifact_bytes(out_dir) -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted(out_dir.iterdir())
        if path.suffix == ".csv" or path.name == "MANIFEST.json"
    }


def test_run_campaign_writes_artifacts_and_manifest(scenario, tmp_path):
    out = tmp_path / "out"
    manifest = run_campaign(scenario, out, SweepEngine())
    assert manifest["scenario"] == "drill"
    assert (out / "MANIFEST.json").exists()
    on_disk = json.loads((out / "MANIFEST.json").read_text())
    assert on_disk == manifest
    for job in manifest["jobs"]:
        assert (out / job["artifact"]).read_text().strip()
    by_name = {job["name"]: job for job in manifest["jobs"]}
    assert by_name["wide"]["journal"] == "wide.journal"
    assert (out / "wide.journal").exists()
    assert by_name["whatif-ep"]["journal"] is None  # no grid, no journal


def test_rerun_is_idempotent_with_fresh_engine(scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_campaign(scenario, out_a, SweepEngine())
    # Different directory AND different engine instance: the bytes are a
    # function of the scenario alone.
    run_campaign(scenario, out_b, SweepEngine())
    assert _artifact_bytes(out_a) == _artifact_bytes(out_b)
    # Same directory again: journals preload, nothing re-executes.
    recorder = obs.install()
    try:
        run_campaign(scenario, out_a, SweepEngine())
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()
    assert counters.get("sweep.configs_executed", 0) == 0
    assert counters["campaign.resumed_entries"] > 0
    assert _artifact_bytes(out_a) == _artifact_bytes(out_b)


# ----------------------------------------------------------------------
# Dependencies and the parallel scheduler
# ----------------------------------------------------------------------

# 'report' is listed first but needs 'base': scheduling order and
# manifest order must disagree (topo vs scenario order respectively).
NEEDS_YAML = """\
name: deps
jobs:
  - name: report
    kind: table
    number: 6
    needs: base
  - name: base
    kind: sweep
    machines: [sg2044]
    kernels: [ep]
    threads: [1, 2]
"""


@pytest.fixture
def needs_scenario(tmp_path):
    path = tmp_path / "needs.yaml"
    path.write_text(NEEDS_YAML)
    return load_scenario(path)


def _spy_order(monkeypatch):
    """Record job execution order while delegating to the real runner."""
    from repro.service import campaign

    order = []
    real = campaign._run_campaign_job

    def spy(engine, out, job, handle):
        order.append(job.name)
        return real(engine, out, job, handle)

    monkeypatch.setattr(campaign, "_run_campaign_job", spy)
    return order


def test_needs_parses_string_and_deduplicates(needs_scenario):
    assert needs_scenario.jobs[0].needs == ("base",)  # bare string coerced
    assert needs_scenario.jobs[1].needs == ()


def test_needs_defer_execution_but_not_manifest_order(
    needs_scenario, tmp_path, monkeypatch
):
    order = _spy_order(monkeypatch)
    manifest = run_campaign(needs_scenario, tmp_path / "out", SweepEngine())
    assert order == ["base", "report"]  # dependency ran first...
    names = [job["name"] for job in manifest["jobs"]]
    assert names == ["report", "base"]  # ...manifest stays scenario order


def test_parallel_campaign_matches_sequential(scenario, tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    run_campaign(scenario, seq, SweepEngine())
    run_campaign(scenario, par, SweepEngine(), jobs=3)
    assert _artifact_bytes(seq) == _artifact_bytes(par)


def test_parallel_respects_needs(needs_scenario, tmp_path, monkeypatch):
    order = _spy_order(monkeypatch)
    run_campaign(needs_scenario, tmp_path / "out", SweepEngine(), jobs=4)
    assert order.index("base") < order.index("report")


def test_parallel_failure_reraises_without_manifest(scenario, tmp_path, monkeypatch):
    from repro.service import campaign

    real = campaign._run_campaign_job

    def sabotage(engine, out, job, handle):
        if job.name == "deep":
            raise RuntimeError("synthetic job failure")
        return real(engine, out, job, handle)

    monkeypatch.setattr(campaign, "_run_campaign_job", sabotage)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="synthetic job failure"):
        run_campaign(scenario, out, SweepEngine(), jobs=3)
    assert not (out / "MANIFEST.json").exists()


def test_jobs_must_be_positive(scenario, tmp_path):
    with pytest.raises(ValueError, match="jobs"):
        run_campaign(scenario, tmp_path / "out", SweepEngine(), jobs=0)


def test_campaign_restores_artifacts_from_store(scenario, tmp_path):
    """A store-backed rerun restores artifacts without executing jobs."""
    store = ResultStore(tmp_path / "store")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_campaign(scenario, out_a, SweepEngine(store=store))

    recorder = obs.install()
    try:
        run_campaign(scenario, out_b, SweepEngine(store=store))
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert counters["campaign.store_restores"] == len(scenario.jobs)
    assert counters.get("sweep.configs_executed", 0) == 0
    assert _artifact_bytes(out_a) == _artifact_bytes(out_b)


# ----------------------------------------------------------------------
# The crash drill
# ----------------------------------------------------------------------


def _crash_seed(scenario, engine, rate=0.5) -> int:
    """A seed whose schedule kills exactly the second job's probe.

    Scans the same deterministic schedule :class:`FaultPlan` uses: the
    ``campaign.job`` probe must stay quiet for ``wide`` and fire for
    ``deep`` (attempt 0 is the only attempt: the injected error is
    terminal for the campaign).
    """
    for seed in range(500):
        plan = FaultPlan(seed=seed, transient_rate=rate)
        roll = plan._uniform
        if roll("transient", "campaign.job", "wide", 0) < rate:
            continue  # job 1 must survive its probe
        if roll("transient", "campaign.job", "deep", 0) >= rate:
            continue  # job 2 must crash at its probe
        return seed
    raise AssertionError("no crash seed found in 500 tries")


def test_crash_mid_campaign_then_resume_byte_identical(scenario, tmp_path):
    reference = tmp_path / "reference"
    crashed = tmp_path / "crashed"

    # The uninterrupted reference run.
    run_campaign(scenario, reference, SweepEngine())

    # Run 1: the fault plan kills the campaign at the second job's
    # probe.  Job 1's artifact and journal are already on disk; job 2
    # and the manifest never land.
    seed = _crash_seed(scenario, SweepEngine())
    faults.install(FaultPlan(seed=seed, transient_rate=0.5))
    try:
        with pytest.raises(InjectedTransientError):
            run_campaign(scenario, crashed, SweepEngine())
    finally:
        faults.disable()

    assert (crashed / "wide.csv").exists()
    assert (crashed / "wide.journal").exists()
    assert not (crashed / "deep.csv").exists()
    assert not (crashed / "MANIFEST.json").exists()

    # Run 2: same scenario, same directory, fresh engine, faults off.
    # The journal preloads job 1's families; only the missing work runs.
    recorder = obs.install()
    try:
        run_campaign(scenario, crashed, SweepEngine())
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()
    assert counters["campaign.resumed_entries"] > 0
    # Only job 2's grid executed on resume (job 1 came from the journal).
    assert counters["sweep.configs_executed"] == 3

    assert _artifact_bytes(crashed) == _artifact_bytes(reference)
