"""CLI start-up: what a reader pays before and for one paper table.

Each measurement is a fresh ``python -m repro`` interpreter timed from
spawn to exit, best of 5, so it includes interpreter start, every
import the command triggers, and its work:

* ``cli.import`` -- ``repro machines``: prints the catalog, so this is
  almost entirely interpreter start plus imports (NumPy and
  ``repro.machines``).
* ``cli.table6_e2e`` -- ``repro table 6``: the same start-up plus the
  model stack and one sweep-backed table.

The per-command import budgets themselves are pinned, independent of
timing, by ``tests/cli/test_import_budget.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
_RUNS = 5


def _run_cli(*argv: str) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(_SRC)
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_cli_import(benchmark, bench_artifact, time_best_of):
    best_s, out = time_best_of("cli.import", lambda: _run_cli("machines"), _RUNS)
    assert "sg2044" in out

    benchmark.pedantic(_run_cli, args=("machines",), rounds=1, iterations=1)
    benchmark.extra_info["best_s"] = round(best_s, 4)
    bench_artifact("cli.import", runs=_RUNS, best_s=best_s)


def test_cli_table6_e2e(benchmark, bench_artifact, time_best_of):
    best_s, out = time_best_of(
        "cli.table6_e2e", lambda: _run_cli("table", "6"), _RUNS
    )
    assert "Table 6" in out

    benchmark.pedantic(_run_cli, args=("table", "6"), rounds=1, iterations=1)
    benchmark.extra_info["best_s"] = round(best_s, 4)
    bench_artifact("cli.table6_e2e", runs=_RUNS, best_s=best_s)
