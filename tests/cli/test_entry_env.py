"""The CLI defaults OpenBLAS/OpenMP to one thread; the library does not.

Each case runs a fresh interpreter, so the variables are read before
NumPy could be imported and nothing leaks from the test process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_RUN_CLI = """
import os, runpy, sys
sys.argv = ["repro", "machines"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"))
"""

_IMPORT_LIBRARY = """
import os
import repro.__main__
import repro.npb.ep
print(os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"))
"""


def _last_line(script: str, **env_vars: str) -> str:
    env = {k: v for k, v in os.environ.items() if k not in _VARS}
    env.update(env_vars, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_cli_defaults_both_pools_to_one_thread():
    assert _last_line(_RUN_CLI) == "1 1"


def test_a_user_value_wins():
    assert _last_line(_RUN_CLI, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="2") == "4 2"


def test_library_import_leaves_the_environment_alone():
    assert _last_line(_IMPORT_LIBRARY) == "None None"
