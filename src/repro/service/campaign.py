"""YAML-driven campaigns: fan a scenario file out into sweep jobs.

A *scenario* is a YAML document naming a list of jobs (the same four
request kinds the HTTP API accepts)::

    name: sg2044-vs-field
    jobs:
      - name: single-core        # artifact file stem
        kind: sweep
        machines: [sg2042, sg2044]
        kernels: [is, ep, mg, cg]
        threads: [1, 2, 4]
      - name: table6
        kind: table
        number: 6
      - name: whatif-ep
        kind: whatif
        kernel: ep
        threads: 64
        needs: [single-core]     # runs only after single-core lands

:func:`run_campaign` executes the jobs through one engine, writes each
artifact to ``<out>/<name>.csv`` (atomic replace), and finishes with a
``MANIFEST.json`` mapping job names to artifacts, job IDs and cost
estimates -- always in scenario order, however the jobs were scheduled.

Jobs may declare ``needs`` (a name or list of names); independent jobs
run concurrently when ``run_campaign`` is given ``jobs > 1``, bounded
by that worker count, with span handles opened in scenario order so
the obs tree stays deterministic.  A dependency cycle, a self edge or
an unknown name is a :class:`ScenarioError` at load time.

Crash-safe resume is the point.  A campaign always runs against a
:class:`repro.store.ResultStore`: the engine's own when it has one,
otherwise ``<out>/store``.  The engine publishes every thread-sweep
family to the store the moment it lands, and a finished job's whole
rendered artifact is published under ``("artifact", job_id)`` -- a
restarted campaign restores those jobs byte-for-byte without executing
a single config (counted as ``campaign.store_restores``), and the
per-config store preload inside the engine warms whatever the artifact
tier missed.  A campaign killed mid-run and rerun with the same
scenario and output directory re-executes only the missing work and
produces byte-identical artifacts to an uninterrupted run.  The resume
drills in ``tests/service/test_campaign.py`` prove it against real
failures: a writer killed with ``os._exit``, a truncated store object
and ``ENOSPC`` on a store write.
"""

from __future__ import annotations

import json
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.core.sweep import SweepEngine
from repro.faults import write_text_atomic
from repro.store import ResultStore

from .requests import (
    JobRequest,
    RequestError,
    artifact_store_key,
    estimate,
    execute_request,
    parse_request,
    request_job_id,
)

__all__ = [
    "ScenarioError",
    "ScenarioJob",
    "Scenario",
    "load_scenario",
    "plan_campaign",
    "run_campaign",
]

MANIFEST_NAME = "MANIFEST.json"


class ScenarioError(ValueError):
    """A scenario file that cannot be run (parse or validation failure)."""


@dataclass(frozen=True)
class ScenarioJob:
    name: str
    request: JobRequest
    needs: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class Scenario:
    name: str
    jobs: tuple[ScenarioJob, ...]


def _parse_needs(path: Path, i: int, raw) -> tuple[str, ...]:
    if raw is None:
        return ()
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or not all(
        isinstance(n, str) and n for n in raw
    ):
        raise ScenarioError(
            f"{path}: jobs[{i}] 'needs' must be a job name or list of job names"
        )
    return tuple(dict.fromkeys(raw))


def _check_acyclic(path: Path, jobs: list[ScenarioJob]) -> None:
    """Reject dependency cycles with an iterative three-colour DFS."""
    needs = {job.name: job.needs for job in jobs}
    state: dict[str, int] = {}  # 1 = on stack, 2 = done
    for root in needs:
        if state.get(root):
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        while stack:
            name, edge = stack[-1]
            if edge == 0:
                state[name] = 1
            if edge < len(needs[name]):
                stack[-1] = (name, edge + 1)
                dep = needs[name][edge]
                if state.get(dep) == 1:
                    raise ScenarioError(
                        f"{path}: dependency cycle through {dep!r} (via {name!r})"
                    )
                if not state.get(dep):
                    stack.append((dep, 0))
            else:
                state[name] = 2
                stack.pop()


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate one scenario YAML file."""
    import yaml

    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: not valid YAML: {exc}") from None
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a YAML mapping")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{path}: scenario needs a non-empty 'name'")
    raw_jobs = data.get("jobs")
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ScenarioError(f"{path}: scenario needs a non-empty 'jobs' list")
    jobs: list[ScenarioJob] = []
    seen: set[str] = set()
    for i, raw in enumerate(raw_jobs):
        if not isinstance(raw, dict):
            raise ScenarioError(f"{path}: jobs[{i}] must be a mapping")
        job_name = raw.get("name")
        if not isinstance(job_name, str) or not job_name:
            raise ScenarioError(f"{path}: jobs[{i}] needs a non-empty 'name'")
        if "/" in job_name or job_name != job_name.strip():
            raise ScenarioError(
                f"{path}: jobs[{i}] name {job_name!r} must be a plain file stem"
            )
        if job_name in seen:
            raise ScenarioError(f"{path}: duplicate job name {job_name!r}")
        seen.add(job_name)
        needs = _parse_needs(path, i, raw.get("needs"))
        if job_name in needs:
            raise ScenarioError(f"{path}: jobs[{i}] {job_name!r} needs itself")
        payload = {k: v for k, v in raw.items() if k not in ("name", "needs")}
        try:
            request = parse_request(payload)
        except RequestError as exc:
            raise ScenarioError(f"{path}: jobs[{i}] ({job_name!r}): {exc}") from None
        jobs.append(ScenarioJob(name=job_name, request=request, needs=needs))
    names = {job.name for job in jobs}
    for i, job in enumerate(jobs):
        for dep in job.needs:
            if dep not in names:
                raise ScenarioError(
                    f"{path}: jobs[{i}] ({job.name!r}) needs unknown job {dep!r}"
                )
    _check_acyclic(path, jobs)
    return Scenario(name=name, jobs=tuple(jobs))


def plan_campaign(scenario: Scenario, engine: SweepEngine | None = None) -> list[dict]:
    """Cost-estimate every job without executing anything."""
    engine = engine if engine is not None else SweepEngine()
    out = []
    for job in scenario.jobs:
        cost = estimate(engine, job.request)
        out.append(
            {
                "name": job.name,
                "job_id": request_job_id(engine, job.request),
                "kind": job.request.kind,
                **cost,
            }
        )
    return out


def _run_campaign_job(
    engine: SweepEngine, out: Path, job: ScenarioJob, span_handle
) -> dict:
    """Execute (or store-restore) one job; returns its manifest entry."""
    obs.incr("campaign.jobs")
    with obs.activate(span_handle):
        job_id = request_job_id(engine, job.request)
        cached = engine.store.get(artifact_store_key(job_id))
        if isinstance(cached, str):
            obs.incr("campaign.store_restores")
            artifact = cached
        else:
            artifact = execute_request(engine, job.request)
            engine.store.put(artifact_store_key(job_id), artifact)
        artifact_path = out / f"{job.name}.csv"
        write_text_atomic(artifact_path, artifact)
        obs.incr("campaign.artifacts_written")
        cost = estimate(engine, job.request)
        return {
            "name": job.name,
            "artifact": artifact_path.name,
            "job_id": job_id,
            "kind": job.request.kind,
            "configs": cost["configs"],
            "families": cost["families"],
        }


def _topo_order(scenario: Scenario) -> list[ScenarioJob]:
    """Scenario order, deferring any job past the jobs it needs."""
    done: set[str] = set()
    order: list[ScenarioJob] = []
    remaining = list(scenario.jobs)
    while remaining:
        deferred = []
        for job in remaining:
            if all(dep in done for dep in job.needs):
                order.append(job)
                done.add(job.name)
            else:
                deferred.append(job)
        if len(deferred) == len(remaining):  # pragma: no cover
            raise ScenarioError(
                f"unschedulable jobs {[j.name for j in deferred]!r}"
            )  # load_scenario rejected cycles, so this cannot happen
        remaining = deferred
    return order


def _run_parallel(
    engine: SweepEngine,
    out: Path,
    scenario: Scenario,
    handles: dict,
    workers: int,
) -> dict[str, dict]:
    """Dependency-aware scheduler: ready jobs run concurrently.

    Launch order is deterministic (scenario order within each ready
    set); completion order is not, which is why span handles were
    opened by the caller before any worker ran.  On the first failure
    no new jobs launch; in-flight ones drain, unreachable handles are
    abandoned, and the failure re-raises.
    """
    deps_left = {job.name: set(job.needs) for job in scenario.jobs}
    dependents: dict[str, list[str]] = {job.name: [] for job in scenario.jobs}
    for job in scenario.jobs:
        for dep in job.needs:
            dependents[dep].append(job.name)
    results: dict[str, dict] = {}
    failure: Exception | None = None
    launched: set[str] = set()
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        in_flight = {}

        def launch_ready() -> None:
            for job in scenario.jobs:
                if job.name in launched or deps_left[job.name]:
                    continue
                launched.add(job.name)
                fut = pool.submit(
                    _run_campaign_job, engine, out, job, handles[job.name]
                )
                in_flight[fut] = job.name

        launch_ready()
        while in_flight:
            finished, _ = futures_wait(in_flight, return_when=FIRST_COMPLETED)
            for fut in finished:
                name = in_flight.pop(fut)
                try:
                    results[name] = fut.result()
                except Exception as exc:  # repro: noqa[R007] -- collected and re-raised below once in-flight jobs drain
                    if failure is None:
                        failure = exc
                    continue
                for dep_name in dependents[name]:
                    deps_left[dep_name].discard(name)
            if failure is None:
                launch_ready()
    finally:
        pool.shutdown(wait=True)
        for job in scenario.jobs:
            if job.name not in launched:
                obs.abandon_span(handles[job.name])
    if failure is not None:
        raise failure
    return results


def run_campaign(
    scenario: Scenario,
    out_dir: str | Path,
    engine: SweepEngine | None = None,
    jobs: int | None = None,
) -> dict:
    """Execute a scenario's jobs; returns the manifest dict.

    ``jobs`` bounds how many scenario jobs run concurrently (default 1:
    strictly sequential, in scenario order deferred past ``needs``
    edges).  Concurrent jobs share the engine's single-flight table,
    so every artifact is identical whichever way the schedule
    interleaved.

    The campaign runs against ``engine.store``; an engine without one is
    not modified but stood in for by an engine over the same runner and
    ``ResultStore(<out>/store)``.  Artifacts, the manifest and store
    objects go through atomic writes, so an interrupted campaign leaves
    only complete files; rerunning it into the same directory is both
    the resume path and a cheap no-op when everything already landed.
    """
    engine = engine if engine is not None else SweepEngine()
    workers = 1 if jobs is None else int(jobs)
    if workers < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if engine.store is None:
        engine = SweepEngine(
            engine.runner, planner=engine.planner, store=ResultStore(out / "store")
        )
    with obs.span("campaign"):
        # Span handles open in scenario order so the obs tree's shape is
        # fixed before any scheduling decision is made.
        handles = {job.name: obs.open_span(f"campaign[{job.name}]") for job in scenario.jobs}
        if workers == 1 or len(scenario.jobs) == 1:
            results = {}
            started: set[str] = set()
            try:
                for job in _topo_order(scenario):
                    started.add(job.name)
                    results[job.name] = _run_campaign_job(
                        engine, out, job, handles[job.name]
                    )
            finally:
                for job in scenario.jobs:
                    if job.name not in started:
                        obs.abandon_span(handles[job.name])
        else:
            results = _run_parallel(engine, out, scenario, handles, workers)
    manifest_jobs = [results[job.name] for job in scenario.jobs]
    manifest = {"scenario": scenario.name, "jobs": manifest_jobs}
    write_text_atomic(
        out / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest
