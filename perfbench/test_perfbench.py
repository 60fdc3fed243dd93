"""Tests for the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench.common import ROOT, SRC, Measurement, percentile, scrub_environ

sys.path.insert(0, str(SRC))

from perfbench import inputs, run, tracing  # noqa: E402
from perfbench.layers import LayerTotals  # noqa: E402
from perfbench.workloads import paper_cli, service_mix  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def test_same_seed_same_inputs_and_different_seeds_differ():
    assert inputs.design_queries(3) == inputs.design_queries(3)
    assert inputs.design_queries(3) != inputs.design_queries(4)
    assert inputs.service_schedule(3, 20) == inputs.service_schedule(3, 20)
    assert inputs.service_schedule(3, 20) != inputs.service_schedule(4, 20)


def test_design_queries_expand_to_valid_configs_of_the_declared_size():
    cores = inputs.machine_cores()
    queries = inputs.design_queries(5)
    strata = set(inputs.SWEEP_STRATA)
    assert len(queries) == len(strata) * inputs.DESIGN_CYCLES
    for query in queries[: 2 * len(strata)]:
        configs = inputs.expand_query(query, cores)
        assert len(configs) == query["size"]
        assert all(c.n_threads <= cores[c.machine] for c in configs)
        assert all(0 <= j < query["size"] for j in query["sample"])


def test_service_schedule_emits_only_requests_the_service_accepts():
    from repro.service.api import MAX_CONFIGS_PER_JOB
    from repro.service.requests import estimate, parse_request
    from repro.core.sweep import SweepEngine

    schedule = inputs.service_schedule(9, 20)
    engine = SweepEngine(store=None)
    arrivals = schedule["light"] + schedule["busy"]
    for payload in schedule["prewarm"] + [a["payload"] for a in arrivals]:
        request = parse_request(payload)  # raises on anything the CLI rejects
        assert estimate(engine, request)["configs"] <= MAX_CONFIGS_PER_JOB
    categories = [a["category"] for a in arrivals]
    assert categories.count("fresh") / len(categories) == pytest.approx(0.55, abs=0.01)
    assert arrivals[categories.index("artifact")]["payload"] == {"kind": "table", "number": 1}
    # every pre-warm resubmit names a distinct pre-warm request
    prewarm_ids = [
        parse_request(a["payload"]) for a in arrivals if a["category"] == "prewarm"
    ]
    assert len(set(prewarm_ids)) == len(prewarm_ids)
    assert set(prewarm_ids) <= {parse_request(p) for p in schedule["prewarm"]}


# ----------------------------------------------------------------------
# Oracles feed fail_ratio
# ----------------------------------------------------------------------


def test_flipped_csv_byte_counts_as_failed(monkeypatch, tmp_path):
    real = paper_cli.reference_export

    def corrupted(tmp, env):
        reference = real(tmp, env)
        body = bytearray(reference["table3.csv"])
        body[10] ^= 0x01
        reference["table3.csv"] = bytes(body)
        return reference

    monkeypatch.setattr(paper_cli, "reference_export", corrupted)
    m = paper_cli.run(seed=1, seconds=0.0, traced=False, tmp=tmp_path)
    assert m.attempted >= 1 and m.failed == m.attempted
    assert m.workload_layers()["fail_ratio"] == 1.0


def test_service_oracle_rejects_a_flipped_artifact_byte():
    from repro.core.sweep import SweepEngine
    from repro.service.requests import execute_request, parse_request

    payload = {"kind": "sweep", "machines": ["sg2044"], "kernels": ["ep", "cg"], "threads": [1, 4]}
    good = execute_request(SweepEngine(store=None), parse_request(payload)).encode()
    bad = bytearray(good)
    bad[-3] ^= 0x01
    outcomes = [
        service_mix.Outcome("fresh", payload, 0.0, state="done", artifact=good),
        service_mix.Outcome("fresh", payload, 0.0, state="done", artifact=bytes(bad)),
        service_mix.Outcome("fresh", payload, 0.0),  # refused
    ]
    assert service_mix.oracle(outcomes) == [True, False, False]


# ----------------------------------------------------------------------
# Names printed match BENCHMARK.json
# ----------------------------------------------------------------------


def _declared(section: str) -> set[str]:
    return {metric["name"] for metric in SPEC[section]}


def test_end_to_end_names_match_benchmark_json():
    assert set(Measurement().end_to_end()) == _declared("end_to_end")


def test_per_layer_names_match_benchmark_json():
    produced = set(Measurement().workload_layers()) | set(LayerTotals().metrics(1))
    produced |= {
        "http.submit_s", "loadgen.lag_p90_s", "service.backlog_max",
        "import.repro_s", "trace.overhead_s",
    }
    assert produced == _declared("per_layer")
    printed = run.assemble(SPEC["per_layer"], {"op_count": 3.0})
    assert set(printed) == _declared("per_layer")
    with pytest.raises(KeyError):
        run.assemble(SPEC["per_layer"], {"not.declared": 1.0})


def test_workloads_in_benchmark_json_have_modules():
    names = {w["name"] for w in SPEC["workloads"]}
    modules = {p.stem for p in (ROOT / "perfbench" / "workloads").glob("*.py")}
    assert names <= modules


def test_benchmark_json_respects_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def test_scrub_environ_drops_repro_settings():
    env = {
        "REPRO_JOBS": "4", "REPRO_PROCS": "2", "REPRO_PLANNER": "0", "REPRO_STORE": "/x",
        "REPRO_RETRIES": "9", "REPRO_BENCH_HISTORY": "/y", "PATH": "/bin",
    }
    assert scrub_environ(env) == {"PATH": "/bin"}


def test_npb_best_case_sums_each_kernels_fastest_run(monkeypatch, tmp_path):
    from perfbench.layers import KERNELS
    from perfbench.workloads import npb_suite

    # two suite runs; the second is faster on every kernel but one, and
    # its last kernel fails verification
    ops = [{"kernel": k, "s": 2.0, "verified": True} for k in KERNELS]
    ops += [{"kernel": k, "s": 1.0, "verified": k != KERNELS[-1]} for k in KERNELS]
    ops[8]["s"] = 3.0

    class Reaped:
        peak_rss_mb = 50.0

    monkeypatch.setattr(npb_suite, "run_worker", lambda *a: ([0.3, 0.2], Reaped(), {"ops": ops}))
    m = npb_suite.run(seed=1, seconds=1.0, traced=False, tmp=tmp_path)
    assert m.op_time_s == pytest.approx(2.0 + 7 * 1.0)
    assert m.op_s == [16.0, 10.0]
    assert (m.attempted, m.failed, m.good) == (2, 1, 0)
    assert m.end_to_end()["setup_s"] == 0.2


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(99), 0.9) == 0.0
    assert percentile(range(100), 0.9) == pytest.approx(89.1)


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 1, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "name": "b", "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "name": "c", "parent": 2, "start": 2.0, "end": 3.0},
    ]
    assert tracing.self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}


def test_tracer_records_nested_spans_with_shared_request_id():
    tracer = tracing.Tracer()

    def inner():
        return 2

    wrapped_inner = tracer.wrap(inner, "inner")

    def outer():
        return wrapped_inner() + 1

    def tag(span, args, kwargs):
        span["rid"] = "job-1"

    assert tracer.wrap(outer, "outer", on_call=tag)() == 3
    inner_span, outer_span = tracer.dump()
    assert inner_span["parent"] == outer_span["id"]
    assert inner_span["rid"] == outer_span["rid"] == "job-1"


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
