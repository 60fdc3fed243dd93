"""Host-side functional NPB kernels (class S) -- the library's own speed.

``npb.suite_import`` records what a fresh interpreter pays to import the
suite (best of 3 import times, modules loaded, peak RSS); it is ungated,
so start-up and baseline memory show in the trajectory without a floor.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.npb.suite import run_benchmark

KERNELS = ["is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"]

_SRC = Path(__file__).resolve().parent.parent / "src"

#: Times ``import repro.npb.suite`` in a fresh interpreter and reports it
#: with the module count and ``ru_maxrss`` (KiB on Linux) as JSON.
_IMPORT_PROBE = """
import json, resource, sys, time
start = time.perf_counter()
import repro.npb.suite
took = time.perf_counter() - start
print(json.dumps({
    "import_ms": took * 1e3,
    "modules": len(sys.modules),
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy": any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
}))
"""


def traced_peak_mib(fn):
    """Peak traced allocation of ``fn()`` in MiB (NumPy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", KERNELS)
def test_functional_class_s(benchmark, kernel, time_best_of, bench_artifact):
    result = benchmark.pedantic(
        run_benchmark, args=(kernel, "S"), iterations=1, rounds=1
    )
    assert result.verified
    # pedantic() feeds pytest-benchmark's own table with one sample; the
    # trajectory entry is the best of 3 direct runs, not one noisy sample.
    run_s, result = time_best_of(
        f"npb.class_s_{kernel}", lambda: run_benchmark(kernel, "S"), 3
    )
    assert result.verified
    # The working set rides along ungated (``peak_mib`` has no direction).
    peak_mib = traced_peak_mib(lambda: run_benchmark(kernel, "S"))
    bench_artifact(
        f"npb.class_s_{kernel}",
        run_s=run_s,
        peak_mib=round(peak_mib, 2),
        verified=result.verified,
    )


def _probe_suite_import() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(_SRC)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_suite_import(benchmark, bench_artifact):
    first = benchmark.pedantic(_probe_suite_import, rounds=1, iterations=1)
    probes = [first, _probe_suite_import(), _probe_suite_import()]
    assert not any(p["scipy"] for p in probes)
    # Ungated fields (no ``_s`` suffix): recorded, never a floor.
    bench_artifact(
        "npb.suite_import",
        runs=len(probes),
        import_ms=round(min(p["import_ms"] for p in probes), 2),
        modules=min(p["modules"] for p in probes),
        maxrss_mb=round(min(p["maxrss_mb"] for p in probes), 2),
    )
