"""Live-server fixture and plain-urllib HTTP helpers for the e2e suite.

``live_server`` starts a real :class:`ThreadingHTTPServer` on an
ephemeral port (bind to port 0, read the kernel-assigned one back) in a
daemon thread, yields everything a test needs, and guarantees shutdown
in teardown -- ``server.shutdown()`` + ``server_close()`` + manager
worker join run in a ``finally`` so a failing test never leaks a
listening socket into the next one.

Every test gets a *fresh* engine, recorder and manager: counter
assertions (exactly-one-execution, containment waits) must never see
another test's traffic.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass

import pytest

from repro import obs
from repro.core.sweep import SweepEngine
from repro.service import JobManager, create_server


def http_get(url: str, timeout: float = 30.0) -> tuple[int, bytes]:
    """GET returning ``(status, body)``; HTTP errors return, not raise."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def http_get_json(url: str, timeout: float = 30.0) -> tuple[int, dict]:
    status, body = http_get(url, timeout=timeout)
    return status, json.loads(body)


def http_post_json(url: str, payload: dict, timeout: float = 30.0) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@dataclass
class LiveServer:
    """What the fixture yields: the base URL plus the live objects."""

    base_url: str
    manager: JobManager
    engine: SweepEngine
    recorder: object

    def url(self, path: str) -> str:
        return self.base_url + path


@pytest.fixture(autouse=True)
def _clean_slate():
    """No telemetry may leak across service tests."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def service_engine() -> SweepEngine:
    """A private engine so execution counters are attributable."""
    return SweepEngine()


def _start_server(manager: JobManager) -> tuple:
    server = create_server("127.0.0.1", 0, manager)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-test-server", daemon=True
    )
    thread.start()
    return server, thread


@pytest.fixture
def live_server(tmp_path, service_engine):
    """A live service on an ephemeral port, torn down unconditionally."""
    recorder = obs.install()
    manager = JobManager(
        engine=service_engine,
        workers=2,
        queue_size=16,
        artifact_dir=tmp_path / "artifacts",
    )
    server, thread = _start_server(manager)
    try:
        yield LiveServer(
            base_url=f"http://127.0.0.1:{server.server_port}",
            manager=manager,
            engine=service_engine,
            recorder=recorder,
        )
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()
        thread.join(timeout=5)
        obs.disable()
