"""Run one benchmark workload and print its metrics as one JSON line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metric names are those in ``BENCHMARK.json``.  With
``--trace 0`` the last stdout line carries every end-to-end metric; with
``--trace 1`` the workload runs once untraced and once traced, and the
line carries every per-layer metric (``trace.overhead_s`` is the traced
minus the untraced ``op_p50_s``).  Layers a workload never reaches
report 0.  Exit status is non-zero, with no result line, when the
program's sources are missing or the run breaks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    SRC,
    Child,
    Scratch,
    child_env,
    median,
    program_present,
    python,
    scrub_environ,
)

IMPORT_SPAWNS = 3
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli, repro.harness.export; "
    "print(time.perf_counter() - t)"
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_cost(tmp: Path) -> float:
    """``import.repro_s``: importing the CLI and the export path, fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SPAWNS + 1):
        out = tmp / f"import-{time.monotonic_ns()}.txt"
        with open(out, "w") as sink:
            Child(python("-c", _IMPORT_PROBE), env=child_env(tmp), cwd=tmp, stdout=sink).wait()
        samples.append(float(out.read_text()))
    return median(samples[1:])  # the first spawn only warms the bytecode cache


def assemble(names: list[dict], values: dict[str, float]) -> dict:
    unknown = set(values) - {metric["name"] for metric in names}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {
        metric["name"]: {"value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in names
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    module = importlib.import_module(f"perfbench.workloads.{workload}")
    with Scratch() as tmp:
        base = module.run(seed, seconds, False, tmp)
        runs = [base]
        if not trace:
            metrics = assemble(spec["end_to_end"], base.end_to_end())
        else:
            traced = module.run(seed, seconds, True, tmp)
            runs.append(traced)
            values = {**base.workload_layers(), **traced.layers}
            values["import.repro_s"] = import_cost(tmp)
            values["trace.overhead_s"] = traced.op_time_s - base.op_time_s
            metrics = assemble(spec["per_layer"], values)
    return {
        "correct": all(run.failed == 0 for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    clean = scrub_environ(os.environ)
    os.environ.clear()
    os.environ.update(clean)
    sys.path.insert(0, str(SRC))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
