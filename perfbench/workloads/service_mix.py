"""service_mix: open-loop HTTP traffic against ``repro serve``.

A ``python -m repro serve --workers 2 --store <tmp>`` process receives
evenly spaced arrivals at two fixed rates, ``light`` and ``busy``, in
alternating blocks (see :mod:`perfbench.inputs` for the rates and the
request mix).  Before the
timed phase a separate, already-exited server session pre-warms the
store.  One process generates the load with two threads and two
connections: a sender on the schedule and a collector that long-polls
one job at a time and fetches its artifact.  Latency runs from each
request's due time to its artifact bytes being received; ``op_time_s``
is the median over the run's fresh sweeps, at either rate.  Oracle,
after the timed phase: every artifact must equal ``execute_request`` on
a fresh engine with no store.
"""

from __future__ import annotations

import http.client
import json
import queue
import re
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from subprocess import PIPE

from ..common import BENCH_DIR, Child, Measurement, child_env, fresh_dir, median, percentile, python
from ..inputs import service_schedule, warmup_requests
from ..layers import LayerTotals

LATENCY_LIMIT_S = 1.0
WORKERS = 2
WAIT_S = 30
#: Extra server spawns timed as set-up, half before the measured server
#: and half after it, so that their best time does not hang on one
#: moment of the host.
SETUP_PROBES = 4
#: The light and busy phases alternate in this many blocks each, so both
#: sample the whole timed window rather than one half of it.
BLOCKS = 4


class Api:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.conn.connect()
        # The client must not add Nagle delays of its own to the POST body.
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str, payload: dict | None = None) -> tuple[int, bytes]:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body, headers)
        # Acknowledge the response headers at once: the server writes
        # headers and body separately, and a delayed ACK would hold the
        # body back for the kernel's delayed-ACK timer (~40 ms).
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        response = self.conn.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str, payload: dict | None = None) -> tuple[int, dict]:
        status, body = self.call(method, path, payload)
        return status, json.loads(body)

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``repro serve`` child on an ephemeral port."""

    def __init__(self, store: Path, tmp: Path, trace: Path | None = None) -> None:
        serve = ["serve", "--workers", str(WORKERS), "--store", str(store),
                 "--host", "127.0.0.1", "--port", "0"]
        if trace is not None:
            args = python(str(BENCH_DIR / "launcher.py"), str(trace), *serve)
        else:
            args = python("-m", "repro", *serve)
        # cwd is a fresh directory: /health reads bench history relative to it.
        self.child = Child(args, env=child_env(tmp), cwd=fresh_dir(tmp, "server"),
                           stderr=PIPE, text=True)
        banner = self.child.proc.stderr.readline()
        found = re.search(r":(\d+) ", banner)
        if not found:
            self.child.stop()
            raise RuntimeError(f"service did not start: {banner!r}")
        self.port = int(found.group(1))
        api = Api(self.port)
        status, _ = api.call("GET", "/health")
        api.close()
        self.ready_s = time.perf_counter() - self.child.started
        if status != 200:
            self.child.stop()
            raise RuntimeError(f"/health answered {status}")

    def stop(self) -> int:
        return self.child.stop()


@dataclass
class Outcome:
    category: str
    payload: dict
    due: float
    lag_s: float = 0.0
    submit_s: float = 0.0
    latency_s: float | None = None
    state: str = "refused"
    artifact: bytes | None = None


def _submit_and_wait(port: int, payloads: list[dict]) -> None:
    """Submit untimed requests and wait until every one is DONE."""
    api = Api(port)
    try:
        ids = []
        for payload in payloads:
            status, doc = api.json("POST", "/api/v1/jobs", payload)
            if status != 202:
                raise RuntimeError(f"untimed submit answered {status}")
            ids.append(doc["job_id"])
        for job_id in ids:
            _, doc = api.json("GET", f"/api/v1/jobs/{job_id}?wait={WAIT_S}")
            if doc["state"] != "done":
                raise RuntimeError(f"untimed job {job_id} ended {doc['state']}")
    finally:
        api.close()


def drive(port: int, arrivals: list[dict], rate: float, sample_backlog: bool) -> tuple[list[Outcome], int]:
    """Send ``arrivals`` on schedule; returns outcomes and the peak backlog seen."""
    sender, collector_api = Api(port), Api(port)
    handoff: queue.Queue = queue.Queue()
    backlog = 0

    def collect() -> None:
        while (item := handoff.get()) is not None:
            outcome, job_id, state = item
            if state not in ("done", "failed", "cancelled"):
                _, doc = collector_api.json("GET", f"/api/v1/jobs/{job_id}?wait={WAIT_S}")
                state = doc["state"]
            if state == "done":
                _, outcome.artifact = collector_api.call("GET", f"/api/v1/jobs/{job_id}/artifact")
            outcome.latency_s = time.perf_counter() - outcome.due
            outcome.state = state

    collector = threading.Thread(target=collect, name="collector")
    collector.start()
    outcomes = []
    start = time.perf_counter() + 0.05
    try:
        for i, arrival in enumerate(arrivals):
            due = start + i / rate
            if sample_backlog and due - time.perf_counter() > 0.02:
                _, health = sender.json("GET", "/health")
                backlog = max(backlog, health["jobs"]["queued"])
            time.sleep(max(0.0, due - time.perf_counter()))
            sent = time.perf_counter()
            outcome = Outcome(arrival["category"], arrival["payload"], due, lag_s=sent - due)
            outcomes.append(outcome)
            status, doc = sender.json("POST", "/api/v1/jobs", arrival["payload"])
            outcome.submit_s = time.perf_counter() - sent
            if status == 202:
                handoff.put((outcome, doc["job_id"], doc["state"]))
    finally:
        handoff.put(None)
        collector.join()
        sender.close()
        collector_api.close()
    return outcomes, backlog


def oracle(outcomes: list[Outcome]) -> list[bool]:
    """Whether each artifact equals ``execute_request`` on a fresh engine."""
    from repro.core.sweep import SweepEngine
    from repro.service.requests import execute_request, parse_request

    engine = SweepEngine(store=None)
    expected: dict = {}
    verdicts = []
    for outcome in outcomes:
        request = parse_request(outcome.payload)
        if request not in expected:
            expected[request] = execute_request(engine, request).encode()
        verdicts.append(outcome.state == "done" and outcome.artifact == expected[request])
    return verdicts


def run(seed: int, seconds: float, traced: bool, tmp: Path) -> Measurement:
    schedule = service_schedule(seed, seconds)
    store = fresh_dir(tmp, "store")
    trace = tmp / f"serve-{time.monotonic_ns()}.trace.json"
    m = Measurement()

    def probe_setup(spawns: int) -> None:
        for _ in range(spawns):
            probe = Server(store, tmp)
            probe.stop()
            m.setup_s.append(probe.ready_s)

    prewarm = Server(store, tmp)
    try:
        m.setup_s.append(prewarm.ready_s)
        _submit_and_wait(prewarm.port, schedule["prewarm"])
    finally:
        prewarm.stop()
    probe_setup(SETUP_PROBES // 2)

    server = Server(store, tmp, trace if traced else None)
    try:
        m.setup_s.append(server.ready_s)
        _submit_and_wait(server.port, warmup_requests())
        light, busy, backlog, busy_window = [], [], 0, 0.0
        for block in range(BLOCKS):
            for phase, sink in (("light", light), ("busy", busy)):
                arrivals = schedule[phase]
                chunk = arrivals[block * len(arrivals) // BLOCKS:(block + 1) * len(arrivals) // BLOCKS]
                if not chunk:
                    continue
                outcomes, peak = drive(server.port, chunk, schedule[f"{phase}_rate"], traced)
                sink.extend(outcomes)
                backlog = max(backlog, peak)
                if phase == "busy":
                    # as it ran: first due time to last artifact received
                    busy_window += max(o.due + (o.latency_s or 0.0) for o in outcomes) - outcomes[0].due
    finally:
        server.stop()
    m.peak_rss_mb = server.child.peak_rss_mb
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    outcomes = light + busy
    verdicts = oracle(outcomes)
    m.attempted = len(outcomes)
    m.failed = verdicts.count(False)
    m.op_s = [o.latency_s for o in light if o.latency_s is not None]
    # The median, not a best case: a fresh sweep that is done before its
    # status call skips the long poll and reads several times faster than
    # the rest, and how many do so varies from run to run.
    m.op_time_s = median(
        o.latency_s for o in outcomes if o.category == "fresh" and o.latency_s is not None
    )
    m.busy_s = [o.latency_s for o in busy if o.latency_s is not None]
    m.good = sum(
        ok and o.latency_s <= LATENCY_LIMIT_S
        for o, ok in zip(busy, verdicts[len(light):])
    )
    m.window_s = busy_window
    if traced:
        totals = LayerTotals()
        if trace.exists():
            data = json.loads(trace.read_text())
            totals.add(data["spans"], data["counters"])
        m.layers = totals.metrics(len(outcomes))
        m.layers["http.submit_s"] = median(o.submit_s for o in outcomes)
        m.layers["loadgen.lag_p90_s"] = percentile([o.lag_s for o in outcomes], 0.9)
        m.layers["service.backlog_max"] = float(backlog)
    return m
