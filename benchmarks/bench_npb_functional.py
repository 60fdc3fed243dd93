"""Host-side functional NPB kernels (class S) -- the library's own speed."""

import pytest

from repro.npb.suite import run_benchmark

KERNELS = ["is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"]


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
    bench_artifact(
        f"npb.class_s_{kernel}", run_s=run_s, verified=result.verified
    )
