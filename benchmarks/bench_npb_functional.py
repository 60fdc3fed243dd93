"""Host-side functional NPB kernels (class S) -- the library's own speed."""

import tracemalloc

import pytest

from repro.npb.suite import run_benchmark

KERNELS = ["is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"]


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
