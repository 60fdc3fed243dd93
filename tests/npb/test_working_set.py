"""Working-set bounds for the functional kernels with full-grid temporaries.

tracemalloc counts NumPy's data buffers, so its peak over one class S run
is the kernel's working set.  EP samples in cache-sized sub-blocks and FT
transforms in place; the bounds catch a return to whole-batch or
whole-grid temporaries (EP peaked at 20.2 MiB and FT at 28.0 MiB then).
"""

import tracemalloc

import pytest

from repro.npb.suite import run_benchmark

MIB = 1 << 20


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel, bound_mib", [("ep", 6), ("ft", 18)])
def test_class_s_peak_is_bounded(kernel, bound_mib):
    run_benchmark(kernel, "S")  # warm any one-off caches outside the trace
    peak = traced_peak(lambda: run_benchmark(kernel, "S"))
    assert peak <= bound_mib * MIB, f"{kernel} peak {peak / MIB:.1f} MiB"
