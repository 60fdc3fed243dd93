"""Closed-loop, in-process worker for ``design_sweep`` and ``npb_suite``.

Usage::

    python perfbench/worker.py WORKLOAD INPUT.json OUTPUT.json [--trace] [--ready-only]

Prints ``READY`` once the program is imported and has accepted a first
query (the parent times spawn-to-READY as set-up), then reads its inputs
and runs operations in rotation until ``seconds`` have passed and the
rotation is complete (every design query, or every NPB kernel, has run
equally often).  Each operation records its seconds ``s``.  ``--trace``
installs the layer wrappers and a ``repro.obs`` recorder after READY.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def _rotation(seconds: float, period: int, step) -> list[dict]:
    """``step(i)`` for i = 0, 1, ... until time is up and ``period`` divides the count."""
    ops: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline or len(ops) % period:
        ops.append(step(len(ops)))
    return ops


def _design_ops(spec: dict) -> list[dict]:
    from perfbench.common import result_digest
    from perfbench.inputs import expand_query
    from repro.core.sweep import SweepEngine

    queries, cores = spec["queries"], spec["cores"]

    def step(i: int) -> dict:
        index = i % len(queries)
        query = queries[index]
        configs = expand_query(query, cores)
        start = time.perf_counter()
        results = SweepEngine().run_many(configs, on_dnr="none")
        took = time.perf_counter() - start
        return {
            "query": index,
            "s": took,
            "configs": len(results),
            "sample": {str(j): result_digest(results[j]) for j in query["sample"]},
        }

    return _rotation(spec["seconds"], len(queries), step)


def _npb_ops(spec: dict) -> list[dict]:
    import repro.npb.suite as suite
    from repro.npb.params import ALL_BENCHMARKS

    def step(i: int) -> dict:
        kernel = ALL_BENCHMARKS[i % len(ALL_BENCHMARKS)]
        start = time.perf_counter()
        verified = bool(suite.run_benchmark(kernel, spec["npb_class"]).verified)
        return {"kernel": kernel, "s": time.perf_counter() - start, "verified": verified}

    return _rotation(spec["seconds"], len(ALL_BENCHMARKS), step)


def main(argv: list[str]) -> int:
    workload, source, target = argv[:3]
    traced = "--trace" in argv
    if workload == "design_sweep":
        from repro.core.sweep import SweepEngine, expand_grid

        SweepEngine().run_many(expand_grid("sg2044", "ep", thread_counts=(1, 2)), on_dnr="none")
        groups, body = ("model",), _design_ops
    else:
        import repro.npb.suite  # noqa: F401

        groups, body = ("npb",), _npb_ops
    print("READY", flush=True)
    if "--ready-only" in argv:
        return 0
    spec = json.loads(Path(source).read_text())
    tracer = None
    if traced:
        from perfbench import tracing
        from repro import obs

        tracer = tracing.Tracer()
        tracing.install(tracer, groups)
        recorder = obs.install()
    ops = body(spec)
    out = {"ops": ops}
    if tracer is not None:
        out["spans"] = tracer.dump()
        out["counters"] = recorder.counters_snapshot()
    Path(target).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
