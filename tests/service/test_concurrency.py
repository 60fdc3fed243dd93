"""Concurrency stress: simultaneous duplicates and subgrid containment.

Two drills over the live HTTP server:

1. Eight client threads POST the *same* sweep at the same instant
   (released by a barrier).  Exactly one execution may happen -- the
   manager's dedup plus the engine's single-flight table must absorb
   the other seven -- and all eight clients must read byte-identical
   artifacts under the same job ID.

2. A sub-sweep submitted while its super-sweep is mid-flight must not
   execute anything: the engine's subgrid containment parks it on the
   super-sweep's completion event (``sweep.containment_waits``).  The
   super-sweep is held open by an engine gated at its first family
   commit, so the overlap is deterministic, not a scheduling accident.
"""

import threading

import pytest

from repro.core.experiment import ExperimentRunner
from repro.core.sweep import SweepEngine
from repro.service import JobManager, JobState, create_server

from .conftest import http_get, http_get_json, http_post_json

SWEEP = {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "threads": [1, 2]}


def test_eight_simultaneous_duplicates_execute_once(live_server):
    """8 threads, 1 execution, 1 job ID, identical bytes for everyone."""
    n_clients = 8
    barrier = threading.Barrier(n_clients)
    responses: list[dict] = [None] * n_clients
    errors: list[Exception] = []

    # Vary the axis spelling per client: canonicalisation must fold all
    # of them onto one identity before dedup even looks at them.
    payloads = [
        {**SWEEP, "threads": [1, 2] if i % 2 == 0 else [2, 1, 2]}
        for i in range(n_clients)
    ]

    def client(i: int) -> None:
        try:
            barrier.wait(timeout=10)
            status, body = http_post_json(live_server.url("/api/v1/jobs"), payloads[i])
            assert status == 202, body
            responses[i] = body
        except Exception as exc:  # surfaced below; never swallowed
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors

    job_ids = {body["job_id"] for body in responses}
    assert len(job_ids) == 1, f"duplicates minted distinct jobs: {job_ids}"
    (job_id,) = job_ids
    assert sum(body["deduplicated"] for body in responses) == n_clients - 1

    status, doc = http_get_json(live_server.url(f"/api/v1/jobs/{job_id}?wait=30"))
    assert status == 200 and doc["state"] == "done"
    assert doc["submissions"] == n_clients

    artifacts = set()
    for _ in range(n_clients):
        status, body = http_get(live_server.url(f"/api/v1/jobs/{job_id}/artifact"))
        assert status == 200
        artifacts.add(body)
    assert len(artifacts) == 1  # byte-identical for every client

    counters = live_server.recorder.counters_snapshot()
    assert counters["service.submitted"] == n_clients
    assert counters["service.dedup_attached"] == n_clients - 1
    assert counters["service.executions"] == 1
    assert counters["sweep.configs_executed"] == 2  # the grid ran exactly once


class GatedEngine(SweepEngine):
    """Holds the first family's commit until the test releases it.

    The batch has been planned and its keys are still claimed in the
    single-flight table -- exactly the machinery the containment drill
    is probing.
    """

    def __init__(self) -> None:
        super().__init__(ExperimentRunner(noise_cv=0.0))
        self.started = threading.Event()
        self.release = threading.Event()
        self._gated = True

    def _commit_outcome(self, keys, outcome):
        if self._gated:
            self._gated = False
            self.started.set()
            assert self.release.wait(timeout=30), "containment test never released"
        super()._commit_outcome(keys, outcome)


@pytest.fixture
def gated_service(tmp_path):
    """A live server whose engine blocks on the first family it commits."""
    from repro import obs

    engine = GatedEngine()
    recorder = obs.install()
    manager = JobManager(
        engine=engine,
        workers=2,
        queue_size=16,
        artifact_dir=tmp_path / "artifacts",
    )
    server = create_server("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", engine, recorder
    finally:
        engine.release.set()  # never leave a worker parked on the gate
        server.shutdown()
        server.server_close()
        manager.shutdown()
        thread.join(timeout=5)
        obs.disable()


def test_contained_subsweep_rides_the_superset(gated_service):
    base, engine, recorder = gated_service

    super_sweep = {**SWEEP, "threads": [1, 2, 4, 8]}
    status, super_body = http_post_json(base + "/api/v1/jobs", super_sweep)
    assert status == 202

    # The super-sweep is now RUNNING and parked in its first commit with
    # all four cache keys claimed in the single-flight table.
    assert engine.started.wait(timeout=30)

    sub_sweep = {**SWEEP, "threads": [1, 2]}
    status, sub_body = http_post_json(base + "/api/v1/jobs", sub_sweep)
    assert status == 202
    assert sub_body["job_id"] != super_body["job_id"]  # different work

    # The second worker picks the sub-sweep up and hits containment: all
    # its keys are in flight under one super-sweep, so it waits on that
    # sweep's single event instead of executing anything.
    deadline_poll = threading.Event()
    for _ in range(300):
        if recorder.counters_snapshot().get("sweep.containment_waits", 0):
            break
        deadline_poll.wait(0.05)
    assert recorder.counters_snapshot().get("sweep.containment_waits", 0) >= 1

    engine.release.set()
    for job_id in (super_body["job_id"], sub_body["job_id"]):
        status, doc = http_get_json(f"{base}/api/v1/jobs/{job_id}?wait=30")
        assert status == 200 and doc["state"] == "done", doc

    counters = recorder.counters_snapshot()
    # 4 configs executed in total: the sub-sweep's 2 were never re-run.
    assert counters["sweep.configs_executed"] == 4
    assert counters["service.executions"] == 2

    # The contained artifact is the matching prefix of the super-sweep's.
    _, super_csv = http_get(f"{base}/api/v1/jobs/{super_body['job_id']}/artifact")
    _, sub_csv = http_get(f"{base}/api/v1/jobs/{sub_body['job_id']}/artifact")
    super_lines = super_csv.decode().splitlines()
    sub_lines = sub_csv.decode().splitlines()
    assert sub_lines == super_lines[: len(sub_lines)]
