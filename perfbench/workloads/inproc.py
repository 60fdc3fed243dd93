"""Spawning the closed-loop worker shared by design_sweep and npb_suite."""

from __future__ import annotations

import json
import time
from pathlib import Path
from subprocess import PIPE

from ..common import BENCH_DIR, Child, child_env, python

#: Set-up spawns per run, half before the measured worker and half after
#: it, so that their best time does not hang on one moment of the host.
SETUP_SPAWNS = 10


def _spawn(workload: str, spec_path: Path, out_path: Path, env: dict, tmp: Path,
           *flags: str) -> tuple[Child, float]:
    """Start a worker; returns it and its spawn-to-READY seconds."""
    args = python(str(BENCH_DIR / "worker.py"), workload, str(spec_path), str(out_path), *flags)
    child = Child(args, env=env, cwd=tmp, stdout=PIPE, text=True)
    line = child.proc.stdout.readline()
    ready = time.perf_counter() - child.started
    if line.strip() != "READY":
        child.wait()
        raise RuntimeError(f"{workload} worker did not start")
    return child, ready


def _time_setup(workload: str, spec_path: Path, out_path: Path, env: dict, tmp: Path,
                spawns: int) -> list[float]:
    samples = []
    for _ in range(spawns):
        child, ready = _spawn(workload, spec_path, out_path, env, tmp, "--ready-only")
        child.wait()
        samples.append(ready)
    return samples


def run_worker(workload: str, spec: dict, traced: bool, tmp: Path) -> tuple[list[float], Child, dict]:
    """Time set-up over fresh spawns, then run the measured worker.

    Returns the set-up samples, the reaped measured worker (for its peak
    RSS) and the worker's output document.
    """
    env = child_env(tmp)
    spec_path = tmp / f"{workload}-input.json"
    out_path = tmp / f"{workload}-output.json"
    spec_path.write_text(json.dumps(spec))
    warm, _ = _spawn(workload, spec_path, out_path, env, tmp, "--ready-only")  # bytecode warm-up
    warm.wait()
    setup = _time_setup(workload, spec_path, out_path, env, tmp, SETUP_SPAWNS // 2)
    child, _ = _spawn(workload, spec_path, out_path, env, tmp, *(["--trace"] if traced else []))
    if child.wait(timeout=spec["seconds"] + 120) != 0:
        raise RuntimeError(f"{workload} worker failed")
    setup += _time_setup(workload, spec_path, out_path, env, tmp, SETUP_SPAWNS - SETUP_SPAWNS // 2)
    return setup, child, json.loads(out_path.read_text())
