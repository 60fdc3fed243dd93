"""End-to-end HTTP tests against a live server, plus golden JSON snapshots.

Everything here talks to a real ``ThreadingHTTPServer`` over plain
urllib -- no test client shims -- so routing, status codes, headers and
worker-thread hand-off are all exercised exactly as ``repro serve``
runs them.

The golden snapshots pin the two service documents that must stay
byte-stable across refactors: a finished job's status document (job IDs
are part of the dedup contract -- an accidental identity change silently
defeats duplicate-attachment across releases) and the ``/stats``
counters after a fixed request sequence.  Refresh intentionally with
``pytest tests/service --update-golden``.
"""

import difflib
import http.client
import json
from pathlib import Path
from urllib.parse import urlparse

from repro.service import JobManager, create_server
from repro.service.api import _Handler

from .conftest import http_get, http_get_json, http_post_json

GOLDEN_DIR = Path(__file__).parent / "golden"

SWEEP = {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep"], "threads": [1, 2]}


def _submit_and_finish(live_server, payload=None) -> tuple[str, dict]:
    """POST a job, block until terminal, return (job_id, final status)."""
    status, body = http_post_json(live_server.url("/api/v1/jobs"), payload or SWEEP)
    assert status == 202, body
    job_id = body["job_id"]
    status, doc = http_get_json(live_server.url(f"/api/v1/jobs/{job_id}?wait=30"))
    assert status == 200
    return job_id, doc


class TestEndpoints:
    def test_health(self, live_server):
        status, body = http_get_json(live_server.url("/health"))
        assert status == 200
        assert body["status"] == "ok"
        assert body["jobs_total"] == sum(body["jobs"].values())
        assert body["queue_size"] == 16
        assert "engine" not in body

    def test_submit_poll_artifact_round_trip(self, live_server):
        job_id, doc = _submit_and_finish(live_server)
        assert doc["state"] == "done"
        assert doc["artifact_ready"] is True
        assert doc["progress"] == {"completed": 2, "total": 2}
        assert doc["request"]["kind"] == "sweep"

        status, artifact = http_get(live_server.url(f"/api/v1/jobs/{job_id}/artifact"))
        assert status == 200
        text = artifact.decode()
        assert text.startswith("machine,kernel,class,threads,")
        # The HTTP artifact is the manager's artifact, byte for byte.
        assert text == live_server.manager.artifact(job_id)

        status, listing = http_get_json(live_server.url("/api/v1/jobs"))
        assert status == 200
        assert listing == [{"job_id": job_id, "kind": "sweep", "state": "done"}]

    def test_duplicate_submission_over_http(self, live_server):
        job_id, _ = _submit_and_finish(live_server)
        status, body = http_post_json(
            live_server.url("/api/v1/jobs"),
            {**SWEEP, "threads": [2, 1]},  # different spelling, same work
        )
        assert status == 202
        assert body["job_id"] == job_id
        assert body["deduplicated"] is True

    def test_submit_rejects_malformed(self, live_server):
        for payload in ({}, {"kind": "sweep", "kernels": ["ep"]}, {"kind": "x"}):
            status, body = http_post_json(live_server.url("/api/v1/jobs"), payload)
            assert status == 400
            assert "error" in body

    def test_submit_rejects_oversized_grid(self, live_server):
        huge = {
            "kind": "sweep",
            "machines": ["sg2042", "sg2044"],
            "kernels": ["is", "mg", "ep", "cg", "ft"],
            "classes": ["S", "W", "A", "B", "C"],
            "threads": list(range(1, 500)),
        }
        status, body = http_post_json(live_server.url("/api/v1/jobs"), huge)
        assert status == 413
        assert "campaign" in body["error"]

    def test_unknown_job_is_404(self, live_server):
        for path in (
            "/api/v1/jobs/sweep-nope",
            "/api/v1/jobs/sweep-nope/artifact",
        ):
            status, body = http_get_json(live_server.url(path))
            assert status == 404, path
        status, _ = http_post_json(live_server.url("/api/v1/jobs/sweep-nope/cancel"), {})
        assert status == 404

    def test_unknown_route_is_404(self, live_server):
        assert http_get(live_server.url("/api/v2/jobs"))[0] == 404
        assert http_post_json(live_server.url("/api/v1/nope"), {})[0] == 404

    def test_bad_wait_param_is_400(self, live_server):
        job_id, _ = _submit_and_finish(live_server)
        status, body = http_get_json(
            live_server.url(f"/api/v1/jobs/{job_id}?wait=soon")
        )
        assert status == 400
        assert "wait" in body["error"]

    def test_each_response_is_one_write(self, live_server, monkeypatch):
        # Headers and body in separate sends stall keep-alive clients on
        # delayed ACK; every response must leave the server in one write.
        writes: list[bytes] = []
        setup = _Handler.setup

        def counting_setup(handler):
            setup(handler)
            write = handler.wfile.write

            def counted(data):
                writes.append(bytes(data))
                return write(data)

            handler.wfile.write = counted

        monkeypatch.setattr(_Handler, "setup", counting_setup)
        job_id, _ = _submit_and_finish(live_server)
        writes.clear()
        url = urlparse(live_server.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
        paths = ["/health", f"/api/v1/jobs/{job_id}/artifact", "/nope"]
        try:
            for path in paths:
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                assert body and writes[-1].endswith(body)
        finally:
            conn.close()
        assert len(writes) == len(paths)
        assert all(w.startswith(b"HTTP/1.1 ") for w in writes)

    def test_stats_reports_service_counters(self, live_server):
        _submit_and_finish(live_server)
        status, report = http_get_json(live_server.url("/stats"))
        assert status == 200
        assert report["version"] == 1
        assert report["counters"]["service.submitted"] == 1
        assert report["counters"]["service.completed"] == 1
        assert report["service"]["jobs"]["done"] == 1

    def test_health_and_stats_carry_no_bench_block(self, live_server):
        # The perf baseline is a committed file, not service state: the
        # ops endpoints neither read it nor import repro.bench.
        status, body = http_get_json(live_server.url("/health"))
        assert status == 200
        assert "bench" not in body
        status, report = http_get_json(live_server.url("/stats"))
        assert status == 200
        assert "bench" not in report


class TestQueuedJobsOverHTTP:
    """Paths that need jobs to *stay* queued use a workers=0 manager."""

    def _paused_server(self, tmp_path):
        manager = JobManager(workers=0, queue_size=4, artifact_dir=tmp_path)
        return create_server("127.0.0.1", 0, manager), manager

    def test_cancel_and_artifact_conflict(self, tmp_path):
        import threading

        server, manager = self._paused_server(tmp_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            status, body = http_post_json(base + "/api/v1/jobs", SWEEP)
            assert status == 202 and body["state"] == "queued"
            job_id = body["job_id"]

            # The artifact of a queued job is a 409, not an empty 200.
            status, body = http_get_json(f"{base}/api/v1/jobs/{job_id}/artifact")
            assert status == 409
            assert "queued" in body["error"]

            status, body = http_post_json(f"{base}/api/v1/jobs/{job_id}/cancel", {})
            assert status == 200
            assert body == {"job_id": job_id, "cancelled": True, "state": "cancelled"}
            # Cancel is idempotent over HTTP too.
            status, body = http_post_json(f"{base}/api/v1/jobs/{job_id}/cancel", {})
            assert status == 200 and body["cancelled"] is True

            status, _ = http_get_json(base + "/stats")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Golden snapshots
# ----------------------------------------------------------------------


def _check_golden(name: str, actual: str, update_golden: bool) -> None:
    golden_path = GOLDEN_DIR / name
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(actual)
        return
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path}; "
        "run `pytest tests/service --update-golden` to create it"
    )
    expected = golden_path.read_text()
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"golden/{name}",
                tofile="this run",
            )
        )
        raise AssertionError(
            f"service document drifted from golden/{name}.\n"
            "If the change is intentional, refresh with\n"
            "    pytest tests/service --update-golden\n"
            f"and commit the diff:\n{diff}"
        )


def test_status_document_golden(live_server, update_golden):
    """The full status JSON -- including the job ID -- is release-stable."""
    _, doc = _submit_and_finish(live_server)
    _check_golden(
        "status_ep_sweep.json",
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
        update_golden,
    )


def test_stats_counters_golden(live_server, update_golden):
    """Counters after a fixed sequence: submit, wait, stats.

    Pins the whole service/engine counter surface for one job the same
    way ``tests/obs/golden`` pins the harness pipelines; ``timings`` and
    spans are volatile and excluded.
    """
    _submit_and_finish(live_server)
    status, report = http_get_json(live_server.url("/stats"))
    assert status == 200
    snapshot = {"counters": report["counters"], "service": report["service"]}
    _check_golden(
        "stats_counters.json",
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        update_golden,
    )
