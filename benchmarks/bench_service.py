"""Service latency: warm paths over real HTTP and through campaigns.

Measures what a client of ``repro serve`` actually feels: the full
urllib round trip (connect, request, JSON, response) against a live
``ThreadingHTTPServer``.  Three warm paths, three floors:

* **warm duplicates** -- re-submitting work the live service already
  executed must be absorbed by the manager's dedup + the engine's memo
  (exactly one execution no matter how many times the client asked);
* **kill-and-restart** -- a brand-new service process sharing only the
  persistent :class:`repro.store.ResultStore` must answer the same
  submission DONE-from-store without executing a single config, with
  the artifact byte-identical to the cold run's;
* **campaigns** -- a store-backed campaign rerun must be >= 10x faster
  than cold with byte-identical artifacts, and a scenario of
  independent jobs under ``jobs=4`` must finish in <= 0.5x the
  sequential wall clock.

Reported per run (into the schema-v1 bench artifact): p50/p95
latencies, dedup/store hit counters, and the campaign speedup ratios.
"""

import itertools
import json
import threading
import time
import urllib.request

from repro import obs
from repro.core.sweep import SweepEngine
from repro.service import JobManager, campaign, create_server, load_scenario, run_campaign
from repro.store import ResultStore


def http_get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read()


def http_get_json(url):
    status, body = http_get(url)
    return status, json.loads(body)


def http_post_json(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())

_PAYLOAD = {
    "kind": "sweep",
    "machines": ["sg2044"],
    "kernels": ["ep", "cg"],
    "threads": [1, 2, 4, 8],
}
_WARM_REQUESTS = 50


def _percentile(samples_s, q):
    ordered = sorted(samples_s)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def test_warm_duplicate_latency(benchmark, bench_artifact):
    recorder = obs.install()
    manager = JobManager(engine=SweepEngine(), workers=2, queue_size=32)
    server = create_server("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_port}"
    try:
        # Cold phase: one real execution, to completion.
        status, body = http_post_json(base + "/api/v1/jobs", _PAYLOAD)
        assert status == 202 and not body["deduplicated"]
        job_id = body["job_id"]
        status, doc = http_get_json(f"{base}/api/v1/jobs/{job_id}?wait=60")
        assert status == 200 and doc["state"] == "done"

        # Warm phase: every submission is a duplicate of finished work.
        submit_s, fetch_s = [], []
        for _ in range(_WARM_REQUESTS):
            with obs.host_timer("bench.service.warm_submit") as timer:
                status, body = http_post_json(base + "/api/v1/jobs", _PAYLOAD)
            assert status == 202 and body["deduplicated"]
            assert body["job_id"] == job_id
            submit_s.append(timer.elapsed_s)
            with obs.host_timer("bench.service.warm_artifact") as timer:
                status, artifact = http_get(f"{base}/api/v1/jobs/{job_id}/artifact")
            assert status == 200 and artifact
            fetch_s.append(timer.elapsed_s)

        # pytest-benchmark's headline number: one warm submit round trip.
        def warm_submit():
            status, body = http_post_json(base + "/api/v1/jobs", _PAYLOAD)
            assert status == 202 and body["deduplicated"]

        benchmark(warm_submit)

        counters = recorder.counters_snapshot()
        submitted = counters["service.submitted"]
        dedup_rate = counters["service.dedup_attached"] / submitted

        # The floor: warm duplicates are served without re-execution.
        # One execution total -- the cold one -- regardless of traffic.
        assert counters["service.executions"] == 1
        assert dedup_rate >= (submitted - 1) / submitted - 1e-9

        submit_p50 = _percentile(submit_s, 0.50)
        submit_p95 = _percentile(submit_s, 0.95)
        fetch_p50 = _percentile(fetch_s, 0.50)
        fetch_p95 = _percentile(fetch_s, 0.95)
        benchmark.extra_info["submit_p50_ms"] = round(submit_p50 * 1e3, 3)
        benchmark.extra_info["submit_p95_ms"] = round(submit_p95 * 1e3, 3)
        benchmark.extra_info["dedup_hit_rate"] = round(dedup_rate, 4)
        bench_artifact(
            "service.warm_duplicate_http",
            warm_requests=_WARM_REQUESTS,
            submit_p50_s=submit_p50,
            submit_p95_s=submit_p95,
            artifact_p50_s=fetch_p50,
            artifact_p95_s=fetch_p95,
            dedup_hit_rate=dedup_rate,
            executions=counters["service.executions"],
            configs_executed=counters["sweep.configs_executed"],
        )
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()
        thread.join(timeout=5)
        obs.disable()


def _serve(engine, workers=2):
    """Spin up a manager + live server; returns (manager, server, thread, base)."""
    manager = JobManager(engine=engine, workers=workers, queue_size=32)
    server = create_server("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return manager, server, thread, f"http://127.0.0.1:{server.server_port}"


def _teardown(manager, server, thread):
    server.shutdown()
    server.server_close()
    manager.shutdown()
    thread.join(timeout=5)


_RESTART_WARM_REQUESTS = 30


def test_warm_restart_http(benchmark, bench_artifact, tmp_path):
    """Kill-and-restart drill: a fresh process answers warm from the store.

    Phase 1 executes the grid cold against a store-backed service, then
    the whole service (engine, manager, server, recorder) is torn down
    -- the simulated kill.  Phase 2 builds everything anew, sharing
    only the store directory, and must serve the same submission DONE
    immediately: zero executions, ``store.hits`` from the artifact
    restore, and response bytes identical to the cold artifact.
    """
    store = ResultStore(tmp_path / "store")

    # Phase 1: cold service -- one real execution, artifact captured.
    obs.install()
    manager, server, thread, base = _serve(SweepEngine(store=store))
    try:
        status, body = http_post_json(base + "/api/v1/jobs", _PAYLOAD)
        assert status == 202 and not body["deduplicated"]
        job_id = body["job_id"]
        status, doc = http_get_json(f"{base}/api/v1/jobs/{job_id}?wait=60")
        assert status == 200 and doc["state"] == "done"
        status, cold_artifact = http_get(f"{base}/api/v1/jobs/{job_id}/artifact")
        assert status == 200
    finally:
        _teardown(manager, server, thread)
        obs.disable()

    # The kill: nothing survives but the store directory on disk.
    recorder = obs.install()
    manager, server, thread, base = _serve(SweepEngine(store=store))
    try:
        submit_s, fetch_s = [], []
        for i in range(_RESTART_WARM_REQUESTS):
            with obs.host_timer("bench.service.restart_submit") as timer:
                status, body = http_post_json(base + "/api/v1/jobs", _PAYLOAD)
            assert status == 202
            assert body["state"] == "done" or body["deduplicated"]
            assert body["job_id"] == job_id
            submit_s.append(timer.elapsed_s)
            with obs.host_timer("bench.service.restart_artifact") as timer:
                status, artifact = http_get(
                    f"{base}/api/v1/jobs/{job_id}/artifact"
                )
            assert status == 200 and artifact == cold_artifact
            fetch_s.append(timer.elapsed_s)

        def warm_submit():
            status, body = http_post_json(base + "/api/v1/jobs", _PAYLOAD)
            assert status == 202

        benchmark(warm_submit)

        counters = recorder.counters_snapshot()
        # The restart-warm floor: the fresh process never executed.
        assert counters.get("service.executions", 0) == 0
        assert counters.get("sweep.configs_executed", 0) == 0
        assert counters["service.store_served"] == 1
        assert counters["store.hits"] >= 1

        submit_p50 = _percentile(submit_s, 0.50)
        submit_p95 = _percentile(submit_s, 0.95)
        benchmark.extra_info["restart_submit_p50_ms"] = round(submit_p50 * 1e3, 3)
        bench_artifact(
            "service.warm_restart_http",
            warm_requests=_RESTART_WARM_REQUESTS,
            submit_p50_s=submit_p50,
            submit_p95_s=submit_p95,
            artifact_p50_s=_percentile(fetch_s, 0.50),
            artifact_p95_s=_percentile(fetch_s, 0.95),
            store_hits=counters["store.hits"],
            store_served=counters["service.store_served"],
            executions=counters.get("service.executions", 0),
        )
    finally:
        _teardown(manager, server, thread)
        obs.disable()


_WARM_SCENARIO = """\
name: warm-restart-bench
jobs:
  - name: table4
    kind: table
    number: 4
  - name: table6
    kind: table
    number: 6
  - name: figure5
    kind: figure
    number: 5
  - name: sweep-small
    kind: sweep
    machines: [sg2042, sg2044]
    kernels: [is, ep, mg, cg]
    threads: [1, 2, 4, 8, 16]
"""


def _campaign_outputs(out_dir):
    """Filename -> bytes for the artifacts a campaign must reproduce."""
    names = sorted(p.name for p in out_dir.glob("*.csv"))
    payload = {name: (out_dir / name).read_bytes() for name in names}
    payload["MANIFEST.json"] = (out_dir / "MANIFEST.json").read_bytes()
    return payload


def test_restart_warm_campaign_speedup(
    benchmark, bench_artifact, escalate_until, time_best_of, tmp_path
):
    """A store-backed campaign rerun is >= 10x faster and bit-identical.

    Cold reps get a virgin store + engine + output directory each time;
    warm reps get a fresh engine against the already-populated store.
    The floor is the whole point of the store tier: restarting costs
    file reads, not model execution.
    """
    scenario_path = tmp_path / "scenario.yaml"
    scenario_path.write_text(_WARM_SCENARIO, encoding="utf-8")
    scenario = load_scenario(scenario_path)

    cold_dirs = []

    def cold_setup():
        i = len(cold_dirs)
        cold_dirs.append(i)
        store = ResultStore(tmp_path / f"cold-store-{i}")
        return SweepEngine(store=store), tmp_path / f"cold-out-{i}"

    def cold_run(setup):
        engine, out = setup
        run_campaign(scenario, out, engine=engine)
        return out

    warm_store = ResultStore(tmp_path / "warm-store")
    run_campaign(
        scenario, tmp_path / "seed-out", engine=SweepEngine(store=warm_store)
    )

    def warm_run():
        engine = SweepEngine(store=warm_store)
        out = tmp_path / "warm-out"
        run_campaign(scenario, out, engine=engine)
        return out

    best = {}

    def measure():
        cold_s, cold_out = time_best_of(
            "campaign.cold", cold_run, 1, setup=cold_setup
        )
        warm_s, warm_out = time_best_of("campaign.warm", warm_run, 2)
        best["cold"] = min(best.get("cold", cold_s), cold_s)
        best["warm"] = min(best.get("warm", warm_s), warm_s)
        best["outs"] = (cold_out, warm_out)

    measure()
    escalate_until(
        lambda: best["cold"] / best["warm"], measure, margin=10.0, max_rounds=3
    )
    speedup = best["cold"] / best["warm"]
    cold_out, warm_out = best["outs"]

    # Exactness first, speed second: warm artifacts are byte-identical.
    assert _campaign_outputs(warm_out) == _campaign_outputs(cold_out)
    assert speedup >= 10.0, (
        f"store-backed campaign rerun only {speedup:.1f}x faster than cold "
        f"(cold {best['cold']:.3f}s, warm {best['warm']:.3f}s)"
    )

    benchmark(warm_run)
    benchmark.extra_info["restart_warm_speedup"] = round(speedup, 2)
    bench_artifact(
        "service.campaign_restart_warm",
        jobs=len(scenario.jobs),
        cold_s=best["cold"],
        warm_s=best["warm"],
        speedup=speedup,
    )


_PARALLEL_SCENARIO = """\
name: parallel-bench
jobs:
  - name: j-is
    kind: sweep
    machines: [sg2044]
    kernels: [is]
    threads: [1, 2]
  - name: j-ep
    kind: sweep
    machines: [sg2044]
    kernels: [ep]
    threads: [1, 2]
  - name: j-mg
    kind: sweep
    machines: [sg2044]
    kernels: [mg]
    threads: [1, 2]
  - name: j-cg
    kind: sweep
    machines: [sg2044]
    kernels: [cg]
    threads: [1, 2]
"""

_SLOW_DELAY_S = 0.25


def test_parallel_campaign_speedup(
    benchmark, bench_artifact, escalate_until, time_best_of, tmp_path, monkeypatch
):
    """Independent scenario jobs under ``jobs=4`` beat sequential by 2x.

    During the measured runs every campaign job is delayed by 0.25 s (a
    bench-local wrapper around the job runner), so the schedule's shape
    -- not model execution -- is what is measured.  Each rep writes to a
    fresh output directory, whose fresh ``<out>/store`` cannot restore
    anything.  Four independent sleeps sequentially cost ~1 s; the
    dependency-aware scheduler overlaps them.
    """
    scenario_path = tmp_path / "scenario.yaml"
    scenario_path.write_text(_PARALLEL_SCENARIO, encoding="utf-8")
    scenario = load_scenario(scenario_path)
    engine = SweepEngine()
    run_job = campaign._run_campaign_job

    def slow_job(*args):
        time.sleep(_SLOW_DELAY_S)
        return run_job(*args)

    reps = itertools.count()
    last = {}

    def fresh_out(name):
        def setup():
            last[name] = tmp_path / f"{name}-{next(reps)}"
            return last[name]
        return setup

    def run_with(jobs, out):
        return run_campaign(scenario, out, engine=engine, jobs=jobs)

    best = {}

    def measure():
        with monkeypatch.context() as patch:
            patch.setattr(campaign, "_run_campaign_job", slow_job)
            seq_s, _ = time_best_of(
                "campaign.seq", lambda out: run_with(1, out), 1,
                setup=fresh_out("seq"),
            )
            par_s, _ = time_best_of(
                "campaign.par", lambda out: run_with(4, out), 1,
                setup=fresh_out("par"),
            )
        best["seq"] = min(best.get("seq", seq_s), seq_s)
        best["par"] = min(best.get("par", par_s), par_s)

    measure()
    escalate_until(
        lambda: best["seq"] / best["par"], measure, margin=2.0, max_rounds=3
    )
    speedup = best["seq"] / best["par"]

    assert _campaign_outputs(last["par"]) == _campaign_outputs(last["seq"])
    assert speedup >= 2.0, (
        f"parallel campaign only {speedup:.2f}x over sequential "
        f"(seq {best['seq']:.3f}s, par {best['par']:.3f}s; "
        f"floor is 2x = parallel <= 0.5x sequential wall clock)"
    )

    benchmark(lambda: run_with(4, tmp_path / "par-out"))
    benchmark.extra_info["parallel_speedup"] = round(speedup, 2)
    bench_artifact(
        "service.campaign_parallel",
        jobs=len(scenario.jobs),
        workers=4,
        slow_delay_s=_SLOW_DELAY_S,
        sequential_s=best["seq"],
        parallel_s=best["par"],
        speedup=speedup,
    )
