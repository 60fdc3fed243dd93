"""Host-side functional NPB kernels (class S) -- the library's own speed.

``npb.ep_two_core`` times class S EP sampled on the calling thread alone
against the calling thread plus its helper, and holds the split to a
speedup floor where two CPUs are usable.

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

from repro._two_threads import usable_cpus
from repro.npb.common import NPBClass
from repro.npb.ep import ep_kernel
from repro.npb.params import ep_params
from repro.npb.suite import run_benchmark

KERNELS = ["is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"]

_EP_REPS = 5
_EP_FLOOR = 1.2

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


def test_ep_two_core(benchmark, time_best_of, escalate_until, bench_artifact, monkeypatch):
    """Class S EP, serial against the caller plus one helper thread.

    The serial side fakes a one-CPU host, which is the only thing that
    turns the split off.  The floor applies only where two CPUs are
    usable; on one CPU both sides run serially and the floor is skipped.
    """
    usable = usable_cpus()
    n_pairs = ep_params(NPBClass.S).n_pairs

    def time_ep(label):
        return time_best_of(label, lambda: ep_kernel(n_pairs), _EP_REPS)

    best = {}

    def measure():
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            serial_s, (sx, sy, counts) = time_ep("npb.ep_serial")
        split_s, (split_sx, split_sy, split_counts) = time_ep("npb.ep_split")
        # The split changes no bit.
        assert (split_sx.hex(), split_sy.hex()) == (sx.hex(), sy.hex())
        assert split_counts.tolist() == counts.tolist()
        best["serial"] = min(best.get("serial", serial_s), serial_s)
        best["split"] = min(best.get("split", split_s), split_s)

    measure()
    rounds = 0
    if usable >= 2:
        rounds = escalate_until(
            lambda: best["serial"] / best["split"],
            measure,
            margin=_EP_FLOOR,
            max_rounds=3,
        )
    speedup = best["serial"] / best["split"]

    benchmark.pedantic(ep_kernel, args=(n_pairs,), rounds=1)
    benchmark.extra_info["ep_speedup"] = round(speedup, 2)
    bench_artifact(
        "npb.ep_two_core",
        n_pairs=n_pairs,
        usable_cpus=usable,
        serial_s=best["serial"],
        split_s=best["split"],
        speedup=round(speedup, 2),
        extra_rounds=rounds,
    )
    if usable < 2:
        pytest.skip("one usable CPU: both sides run serially, no floor applies")
    assert speedup >= _EP_FLOOR, (
        f"two-thread EP only {speedup:.2f}x the serial one "
        f"(serial {best['serial'] * 1e3:.1f} ms, split {best['split'] * 1e3:.1f} ms)"
    )
