"""JobManager units: dedup, bounded admission, lifecycle, store resume.

Everything here runs with ``workers=0`` and drives execution through
:meth:`JobManager.run_next`, so the tests are single-threaded and every
assertion about states and counters is exact.
"""

import pytest

from repro import obs
from repro.core.sweep import SweepEngine
from repro.service import (
    IllegalTransition,
    JobManager,
    JobState,
    QueueFull,
    parse_request,
    request_configs,
)
from repro.store import ResultStore

SWEEP = {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "threads": [1, 2]}


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def manager(tmp_path):
    return JobManager(
        engine=SweepEngine(),
        workers=0,
        queue_size=4,
        artifact_dir=tmp_path / "artifacts",
    )


def test_submit_run_done(manager, tmp_path):
    job, deduplicated = manager.submit(parse_request(SWEEP))
    assert not deduplicated
    assert job.state is JobState.QUEUED
    ran = manager.run_next()
    assert ran is job
    assert job.state is JobState.DONE
    assert job.artifact.startswith("machine,kernel,")
    on_disk = (tmp_path / "artifacts" / f"{job.job_id}.csv").read_text()
    assert on_disk == job.artifact
    assert manager.artifact(job.job_id) == job.artifact
    assert manager.run_next() is None  # queue drained


def test_duplicate_submission_attaches(manager):
    job, first = manager.submit(parse_request(SWEEP))
    again, deduplicated = manager.submit(
        parse_request({**SWEEP, "threads": [2, 1]})
    )
    assert again is job
    assert deduplicated
    assert job.submissions == 2
    manager.run_next()
    # A duplicate of a DONE job attaches too: the artifact is reusable.
    final, deduplicated = manager.submit(parse_request(SWEEP))
    assert final is job and deduplicated


def test_queue_bound_rejects(manager):
    for threads in ([1], [2], [4], [8]):
        manager.submit(parse_request({**SWEEP, "threads": threads}))
    with pytest.raises(QueueFull):
        manager.submit(parse_request({**SWEEP, "threads": [16]}))
    # Draining one slot readmits.
    manager.run_next()
    manager.submit(parse_request({**SWEEP, "threads": [16]}))


def test_cancel_queued_is_idempotent(manager):
    job, _ = manager.submit(parse_request(SWEEP))
    assert manager.cancel(job.job_id) is True
    assert job.state is JobState.CANCELLED
    assert manager.cancel(job.job_id) is True  # idempotent
    assert job.state is JobState.CANCELLED
    assert job.done.is_set()
    # The stale queue entry is consumed and skipped, never executed.
    assert manager.run_next() is None
    assert job.state is JobState.CANCELLED


def test_cancel_unknown_and_terminal(manager):
    assert manager.cancel("sweep-doesnotexist") is False
    job, _ = manager.submit(parse_request(SWEEP))
    manager.run_next()
    assert job.state is JobState.DONE
    assert manager.cancel(job.job_id) is False
    assert job.state is JobState.DONE


def test_cancel_detaches_duplicate_submission(manager):
    """With >1 submitter attached, cancel detaches one; the job survives."""
    job, _ = manager.submit(parse_request(SWEEP))
    manager.submit(parse_request(SWEEP))
    manager.submit(parse_request({**SWEEP, "threads": [2, 1]}))
    assert job.submissions == 3

    recorder = obs.install()
    assert manager.cancel(job.job_id) is True  # detaches, does not cancel
    obs.disable()
    assert job.state is JobState.QUEUED
    assert job.submissions == 2
    assert recorder.counters_snapshot()["service.cancel_detached"] == 1

    assert manager.cancel(job.job_id) is True  # second detach
    assert job.state is JobState.QUEUED and job.submissions == 1

    # The remaining submitter still gets its result.
    ran = manager.run_next()
    assert ran is job and job.state is JobState.DONE


def test_cancel_last_submission_cancels_for_real(manager):
    job, _ = manager.submit(parse_request(SWEEP))
    manager.submit(parse_request(SWEEP))
    manager.cancel(job.job_id)  # detach down to one submitter
    assert manager.cancel(job.job_id) is True  # sole submitter: real cancel
    assert job.state is JobState.CANCELLED
    assert manager.run_next() is None


def test_done_from_store_without_worker(tmp_path):
    """A store-warm submission goes QUEUED -> DONE without a worker."""
    store = ResultStore(tmp_path / "store")
    first = JobManager(
        engine=SweepEngine(store=store),
        workers=0,
        artifact_dir=tmp_path / "a1",
    )
    job, _ = first.submit(parse_request(SWEEP))
    first.run_next()
    assert job.state is JobState.DONE

    recorder = obs.install()
    second = JobManager(
        engine=SweepEngine(store=store),
        workers=0,
        artifact_dir=tmp_path / "a2",
    )
    served, deduplicated = second.submit(parse_request(SWEEP))
    obs.disable()
    assert not deduplicated
    assert served.state is JobState.DONE  # short-circuited at submit
    assert served.artifact == job.artifact
    on_disk = (tmp_path / "a2" / f"{served.job_id}.csv").read_text()
    assert on_disk == job.artifact  # artifact file materialised too
    assert second.run_next() is None  # never entered the queue
    counters = recorder.counters_snapshot()
    assert counters["service.store_served"] == 1
    assert counters.get("sweep.configs_executed", 0) == 0

    # A duplicate of a store-served job attaches like any DONE job.
    again, deduplicated = second.submit(parse_request(SWEEP))
    assert again is served and deduplicated


def test_resubmit_after_cancel_requeues(manager):
    job, _ = manager.submit(parse_request(SWEEP))
    manager.cancel(job.job_id)
    fresh, deduplicated = manager.submit(parse_request(SWEEP))
    assert not deduplicated
    assert fresh is not job
    assert fresh.job_id == job.job_id  # identity is the work, not the attempt
    ran = manager.run_next()
    assert ran is fresh and fresh.state is JobState.DONE


def test_failed_job_records_error(manager, monkeypatch):
    job, _ = manager.submit(parse_request(SWEEP))

    def boom(engine, request):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("repro.service.jobs.execute_request", boom)
    manager.run_next()
    assert job.state is JobState.FAILED
    assert "synthetic failure" in job.error
    status = manager.status(job.job_id)
    assert status["state"] == "failed"
    assert status["error"] == "RuntimeError: synthetic failure"


def test_illegal_transition_raises(manager):
    job, _ = manager.submit(parse_request(SWEEP))
    manager.cancel(job.job_id)
    with manager._lock:
        with pytest.raises(IllegalTransition):
            manager._transition(job, JobState.RUNNING)


def test_status_and_counts(manager):
    job, _ = manager.submit(parse_request(SWEEP))
    status = manager.status(job.job_id)
    assert status["state"] == "queued"
    assert status["estimate"] == {"configs": 2, "families": 1}
    assert status["progress"] == {"completed": 0, "total": 2}
    assert manager.counts()["queued"] == 1
    manager.run_next()
    status = manager.status(job.job_id)
    assert status["state"] == "done"
    assert status["progress"] == {"completed": 2, "total": 2}
    assert status["artifact_ready"] is True
    assert manager.status("sweep-unknown") is None


def test_job_families_published_to_store(tmp_path):
    """Every family of a job lands in the engine's store, then its artifact."""
    store = ResultStore(tmp_path / "store")
    manager = JobManager(engine=SweepEngine(store=store), workers=0)
    wide, _ = manager.submit(
        parse_request({**SWEEP, "kernels": ["ep", "is"], "threads": [1]})
    )
    manager.run_next()
    keys = [manager.engine.cache_key(c) for c in request_configs(wide.request)]
    assert all(key in store for key in keys)
    assert store.stats()["entries"] == len(keys) + 1  # + the artifact


class _FailingEngine(SweepEngine):
    """Raises at one kernel's family commit: a job killed half-way through."""

    def __init__(self, kernel, store):
        super().__init__(store=store)
        self.kernel = kernel

    def _commit_outcome(self, keys, outcome):
        if keys[0][4] == self.kernel:  # compute_cache_key's kernel field
            raise RuntimeError("worker died")
        super()._commit_outcome(keys, outcome)


def test_half_done_job_resumes_from_shared_store(tmp_path):
    """A fresh manager+engine on the same store re-executes only what the
    failed run never published, and the artifact is byte-identical."""
    request = parse_request({**SWEEP, "kernels": ["ep", "is"]})
    reference_manager = JobManager(engine=SweepEngine(), workers=0)
    reference, _ = reference_manager.submit(request)
    reference_manager.run_next()

    store = ResultStore(tmp_path / "store")
    first = JobManager(engine=_FailingEngine("is", store), workers=0)
    job, _ = first.submit(request)
    first.run_next()
    assert job.state is JobState.FAILED  # the ep family landed, is did not

    recorder = obs.install()
    second = JobManager(engine=SweepEngine(store=store), workers=0)
    resumed, _ = second.submit(request)
    second.run_next()
    obs.disable()
    assert resumed.state is JobState.DONE
    assert resumed.artifact == reference.artifact
    counters = recorder.counters_snapshot()
    assert counters["sweep.configs_executed"] == 2  # only the is family re-ran
