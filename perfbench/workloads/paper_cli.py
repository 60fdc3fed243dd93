"""paper_cli: a reader regenerating the whole paper from the command line.

Closed loop, one client: each operation is one fresh
``python -m repro export <dir>`` process, timed from spawn to exit;
``op_time_s`` is the fastest of them.  The export takes no inputs, so
the seed changes nothing here.  Oracle: every file must be
byte-identical to ``export_all`` run in a separate interpreter on a
fresh engine with the planner off (``REPRO_PLANNER=0``), computed
before the timed phase.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from ..common import BENCH_DIR, Child, Measurement, child_env, fresh_dir, median, python
from ..layers import LayerTotals

LATENCY_LIMIT_S = 2.0
#: Set-up spawns per run, half before the exports and half after them,
#: so that their best time does not hang on one moment of the host.
SETUP_SPAWNS = 10
_REFERENCE = "import sys; from repro.harness.export import export_all; export_all(sys.argv[1])"


def read_tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def reference_export(tmp: Path, env: dict) -> dict[str, bytes]:
    out = fresh_dir(tmp, "reference")
    child = Child(python("-c", _REFERENCE, str(out)), env={**env, "REPRO_PLANNER": "0"}, cwd=tmp)
    if child.wait() != 0:
        raise RuntimeError("reference export failed")
    return read_tree(out)


def time_setup(tmp: Path, env: dict, spawns: int) -> list[float]:
    """Fresh interpreter until the CLI has answered a trivial command."""
    samples = []
    for _ in range(spawns):
        child = Child(python("-m", "repro", "machines"), env=env, cwd=tmp)
        if child.wait() != 0:
            raise RuntimeError("repro machines failed")
        samples.append(time.perf_counter() - child.started)
    return samples


def run(seed: int, seconds: float, traced: bool, tmp: Path) -> Measurement:
    env = child_env(tmp)
    Child(python("-m", "repro", "machines"), env=env, cwd=tmp).wait()  # bytecode warm-up
    m = Measurement(setup_s=time_setup(tmp, env, SETUP_SPAWNS // 2))
    reference = reference_export(tmp, env)
    totals = LayerTotals()
    rss = []
    deadline = time.perf_counter() + seconds
    while not m.op_s or time.perf_counter() < deadline:
        out = fresh_dir(tmp, f"export-{seed}")
        trace = out.with_suffix(".trace.json")
        if traced:
            args = python(str(BENCH_DIR / "launcher.py"), str(trace), "export", str(out))
        else:
            args = python("-m", "repro", "export", str(out))
        child = Child(args, env=env, cwd=tmp)
        code = child.wait()
        took = time.perf_counter() - child.started
        m.attempted += 1
        m.op_s.append(took)
        rss.append(child.peak_rss_mb)
        if code != 0 or read_tree(out) != reference:
            m.failed += 1
        elif took <= LATENCY_LIMIT_S:
            m.good += 1
        if traced and trace.exists():
            data = json.loads(trace.read_text())
            totals.add(data["spans"], data["counters"])
        shutil.rmtree(out, ignore_errors=True)
    m.setup_s += time_setup(tmp, env, SETUP_SPAWNS - SETUP_SPAWNS // 2)
    m.op_time_s = min(m.op_s)
    m.window_s = sum(m.op_s)
    m.peak_rss_mb = median(rss)
    if traced:
        m.layers = totals.metrics(len(m.op_s))
    return m
