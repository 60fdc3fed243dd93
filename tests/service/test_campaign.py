"""Campaign runner: validation, manifests, idempotence and crash-resume.

The centrepiece is the resume drills, each against a real failure: a
writer killed with ``os._exit`` (nothing in ``finally`` or ``atexit``
runs, just as under SIGKILL), a truncated store object, and ``ENOSPC``
on a store write.  Rerunning the same campaign into the same directory
with a fresh engine must resume from ``<out>/store`` and finish with an
artifact set byte-identical to a never-interrupted reference run.
"""

import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.core.sweep import SweepEngine
from repro.service import (
    ScenarioError,
    load_scenario,
    plan_campaign,
    run_campaign,
)
from repro.service.requests import artifact_store_key, request_job_id
from repro.store import ResultStore
from repro.store.store import _digest_key

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
    # No store on the engine: the campaign keeps its own under <out>.
    assert (out / "store" / "objects").is_dir()
    assert not list(out.glob("*.journal"))


def test_rerun_is_idempotent_with_fresh_engine(scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_campaign(scenario, out_a, SweepEngine())
    # Different directory AND different engine instance: the bytes are a
    # function of the scenario alone.
    run_campaign(scenario, out_b, SweepEngine())
    assert _artifact_bytes(out_a) == _artifact_bytes(out_b)
    # Same directory again: <out>/store restores, nothing re-executes.
    recorder = obs.install()
    try:
        run_campaign(scenario, out_a, SweepEngine())
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()
    assert counters.get("sweep.configs_executed", 0) == 0
    assert counters["campaign.store_restores"] == len(scenario.jobs)
    assert _artifact_bytes(out_a) == _artifact_bytes(out_b)


def test_caller_engine_is_not_modified(scenario, tmp_path):
    engine = SweepEngine()
    run_campaign(scenario, tmp_path / "out", engine)
    assert engine.store is None


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
# Resume drills: real failures, byte-identical resume
# ----------------------------------------------------------------------

_KILLED_WRITER = """\
import os, sys
from repro.service import campaign, load_scenario, run_campaign

real = campaign._run_campaign_job

def killed(engine, out, job, handle):
    if job.name == "deep":
        os._exit(1)  # no finally, no atexit: a SIGKILL stand-in
    return real(engine, out, job, handle)

campaign._run_campaign_job = killed
run_campaign(load_scenario(sys.argv[1]), sys.argv[2])
"""


def _no_tmp(out) -> bool:
    return not list(Path(out).rglob("*.tmp"))


def _objects_intact(out) -> bool:
    """Every store object parses and matches its recorded sha256."""
    for path in (Path(out) / "store" / "objects").iterdir():
        entry = json.loads(path.read_text())
        digest = hashlib.sha256(entry["payload"].encode()).hexdigest()
        if digest != entry["sha256"]:
            return False
    return True


def _rerun(scenario, out) -> dict:
    """Resume ``out`` with a fresh engine; returns the run's counters."""
    recorder = obs.install()
    try:
        run_campaign(scenario, out, SweepEngine())
    finally:
        obs.disable()
    return recorder.counters_snapshot()


@pytest.fixture
def reference(scenario, tmp_path):
    out = tmp_path / "reference"
    run_campaign(scenario, out, SweepEngine())
    return _artifact_bytes(out)


def test_killed_writer_resumes_byte_identical(scenario, reference, tmp_path):
    crashed = tmp_path / "crashed"
    env = {k: v for k, v in os.environ.items() if k != "REPRO_STORE"}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _KILLED_WRITER, str(tmp_path / "scenario.yaml"), str(crashed)],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert child.returncode == 1, child.stderr.decode()
    assert (crashed / "wide.csv").exists()
    assert not (crashed / "deep.csv").exists()
    assert not (crashed / "MANIFEST.json").exists()

    counters = _rerun(scenario, crashed)
    # Job 1 came back from the store; only job 2's grid executed.
    assert counters["campaign.store_restores"] == 1
    assert counters["sweep.configs_executed"] == 3
    assert _artifact_bytes(crashed) == reference
    assert _no_tmp(crashed)


def test_truncated_object_is_redone_alone(scenario, reference, tmp_path):
    out = tmp_path / "out"
    run_campaign(scenario, out, SweepEngine())
    deep = next(job for job in scenario.jobs if job.name == "deep")
    key = artifact_store_key(request_job_id(SweepEngine(), deep.request))
    victim = out / "store" / "objects" / f"{_digest_key(key)}.json"
    intact = victim.read_bytes()
    victim.write_bytes(intact[: len(intact) // 2])

    counters = _rerun(scenario, out)
    assert counters["store.corrupt_entries"] == 1
    # The other jobs restored whole; deep re-rendered from stored results.
    assert counters["campaign.store_restores"] == len(scenario.jobs) - 1
    assert counters.get("sweep.configs_executed", 0) == 0
    assert counters["store.writes"] == 1  # only the truncated entry rewritten
    assert victim.read_bytes() == intact
    assert _artifact_bytes(out) == reference


def test_enospc_on_store_write_then_resume(scenario, reference, tmp_path, monkeypatch):
    out = tmp_path / "out"
    real_replace = os.replace
    object_writes = []

    def full_disk(src, dst):
        if Path(dst).parent.name == "objects":
            object_writes.append(dst)
            if len(object_writes) == 3:  # mid-way through the first job
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError) as info:
            run_campaign(scenario, out, SweepEngine())
    assert info.value.errno == errno.ENOSPC
    assert _no_tmp(out)
    assert _objects_intact(out)
    assert not (out / "MANIFEST.json").exists()
    assert not list(out.glob("*.csv"))

    counters = _rerun(scenario, out)
    assert counters["store.hits"] >= 2  # the objects that landed were reused
    assert _artifact_bytes(out) == reference
    assert _no_tmp(out)
    assert _objects_intact(out)
