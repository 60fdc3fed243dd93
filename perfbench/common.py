"""Process, environment and statistics helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def scrub_environ(env) -> dict:
    """Drop every ``REPRO_*`` setting so the program runs at its defaults.

    Covers ``REPRO_JOBS``, ``REPRO_PROCS``, ``REPRO_PLANNER``,
    ``REPRO_STORE``, ``REPRO_RETRIES`` and the ``REPRO_BENCH_*`` family.
    """
    return {k: v for k, v in env.items() if not k.startswith("REPRO_")}


#: Native thread pools (OpenBLAS, OpenMP) run one thread in measured
#: processes.  By default OpenBLAS starts one thread per CPU, and on a
#: host of two shared CPUs its idle threads spin after each call, so
#: times would measure the scheduler rather than the program.
NATIVE_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(tmp: Path, **extra: str) -> dict:
    env = scrub_environ(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    env.update(NATIVE_THREADS)
    env.update(extra)
    return env


class Scratch:
    """A fresh directory under the checkout, removed on exit."""

    def __enter__(self) -> Path:
        SCRATCH.mkdir(exist_ok=True)
        self.path = SCRATCH / f"run-{os.getpid()}-{time.monotonic_ns()}"
        self.path.mkdir()
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it


def fresh_dir(tmp: Path, name: str) -> Path:
    path = tmp / f"{name}-{time.monotonic_ns()}"
    path.mkdir()
    return path


class Child:
    """A child process whose peak RSS is collected when it is reaped."""

    def __init__(self, args, *, env, cwd=None, stdout=subprocess.DEVNULL,
                 stderr=subprocess.DEVNULL, text=False) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            args, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=stdout, stderr=stderr, text=text,
        )
        self.peak_rss_mb = 0.0

    def wait(self, timeout: float = 120.0) -> int:
        """Reap the child (killing it after ``timeout``); returns its exit code."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        killer = threading.Timer(timeout, self.proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()
        return self.proc.returncode

    def stop(self, timeout: float = 15.0) -> int:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)  # the CLI's clean-shutdown path
        return self.wait(timeout)


def result_digest(result) -> str:
    """Identity of one sweep result (``DNR`` for a Did-Not-Run config)."""
    if result is None:
        return "DNR"
    return hashlib.sha256(repr(result).encode()).hexdigest()


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q`` quantile, reported only with >= 10 samples beyond it.

    Returns 0.0 when the run has too few samples for that tail.
    """
    values = sorted(values)
    if not values or len(values) * (1.0 - q) < 10 - 1e-9:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Measurement:
    """What one workload run measured (tracing on or off).

    ``op_time_s`` is the workload's end-to-end operation time, a figure
    steady from run to run (each workload module says how it is formed);
    ``op_s`` holds every operation's time.
    """

    setup_s: list[float] = field(default_factory=list)
    op_time_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    busy_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    good: int = 0
    window_s: float = 0.0
    peak_rss_mb: float = 0.0
    configs: int = 0
    layers: dict = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": min(self.setup_s, default=0.0),
            "op_time_s": self.op_time_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def workload_layers(self) -> dict[str, float]:
        """Per-layer view of the whole run (medians, tails, counts, ratios)."""
        return {
            "op_count": float(len(self.op_s)),
            "op_p50_s": median(self.op_s),
            "op_p90_s": percentile(self.op_s, 0.9),
            "busy_p50_s": median(self.busy_s),
            "busy_p90_s": percentile(self.busy_s, 0.9),
            "goodput_per_s": ratio(self.good, self.window_s),
            "configs_per_s": ratio(self.configs, sum(self.op_s)),
            "fail_ratio": ratio(self.failed, self.attempted),
        }
