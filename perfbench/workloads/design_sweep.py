"""design_sweep: in-process library queries, the model's throughput path.

Closed loop, one client: each operation is a cold ``SweepEngine()``
(default settings) ``run_many`` over a seeded axis subset, batch sizes
log-spread from a handful to a few thousand configs.  The run repeats
the seed's queries in rotation and ends on a whole rotation;
``op_time_s`` is the geometric mean over the queries of each one's
fastest run, so that small and large batches weigh alike.
Oracle, after the timed phase: seeded sample configs of every run of
every query must equal a one-at-a-time ``ExperimentRunner.run`` of the
same config.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from ..common import Measurement, result_digest
from ..inputs import design_queries, expand_query, machine_cores
from ..layers import LayerTotals
from .inproc import run_worker

LATENCY_LIMIT_S = 1.0


def oracle_digest(runner, config) -> str:
    from repro.core.perfmodel import DNRError

    try:
        return result_digest(runner.run(config))
    except DNRError:
        return result_digest(None)


def run(seed: int, seconds: float, traced: bool, tmp: Path) -> Measurement:
    from repro.core.experiment import ExperimentRunner

    cores = machine_cores()
    queries = design_queries(seed)
    spec = {"seconds": seconds, "queries": queries, "cores": cores}
    setup, child, out = run_worker("design_sweep", spec, traced, tmp)
    m = Measurement(setup_s=setup, peak_rss_mb=child.peak_rss_mb)

    runner = ExperimentRunner()
    expected: dict[tuple[int, str], str] = {}
    best: dict[int, float] = {}
    for op in out["ops"]:
        m.attempted += 1
        m.op_s.append(op["s"])
        best[op["query"]] = min(op["s"], best.get(op["query"], op["s"]))
        m.configs += op["configs"]
        query = queries[op["query"]]
        configs = None
        ok = op["configs"] == query["size"]
        for j, digest in op["sample"].items():
            key = (op["query"], j)
            if key not in expected:
                configs = configs or expand_query(query, cores)
                expected[key] = oracle_digest(runner, configs[int(j)])
            ok = ok and digest == expected[key]
        if not ok:
            m.failed += 1
        elif op["s"] <= LATENCY_LIMIT_S:
            m.good += 1
    m.op_time_s = statistics.geometric_mean(best.values())
    m.window_s = sum(m.op_s)
    if traced:
        totals = LayerTotals()
        totals.add(out["spans"], out["counters"])
        m.layers = totals.metrics(len(m.op_s))
    return m
