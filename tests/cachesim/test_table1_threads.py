"""Table 1 on two threads: the split is invisible in every output.

``table1_profile`` simulates the kernels on the calling thread plus one
helper when two CPUs are usable.  These tests pin the split against the
serial path bit for bit, check that it degrades to serial on a one-CPU
host, that a helper failure surfaces in the caller, and that the memory
it costs stays bounded.
"""

import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.cachesim import stats, trace
from repro.cachesim.hierarchy import xeon8170_hierarchy
from repro.cachesim.stats import clear_profile_cache, profile_kernel, table1_profile
from repro.cachesim.trace import clear_trace_cache

MIB = 1 << 20
_FIELDS = ("kernel", "cache_stall", "ddr_stall", "ddr_bandwidth_bound", "l1_hit_rate", "dram_miss_rate")


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _cold_table1(n_accesses):
    """A cold Table 1 with its cachesim counters."""
    clear_profile_cache()
    clear_trace_cache()
    rec = obs.install()
    try:
        profiles = table1_profile(n_accesses=n_accesses)
    finally:
        obs.disable()
    counters = {k: v for k, v in rec.counters_snapshot().items() if k.startswith("cachesim.")}
    return profiles, counters


def _bits(profiles):
    return [
        (k, *(getattr(p, f) if f == "kernel" else float(getattr(p, f)).hex() for f in _FIELDS))
        for k, p in profiles.items()
    ]


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_profile_cache()
    clear_trace_cache()
    yield
    clear_profile_cache()
    clear_trace_cache()


@pytest.mark.parametrize("n_accesses", [40_000, 60_000])
def test_two_threads_equal_serial_bit_for_bit(monkeypatch, n_accesses):
    ran_on = set()
    real = stats.profile_kernel

    def recording(*args, **kwargs):
        ran_on.add(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(stats, "profile_kernel", recording)
    _cpus(monkeypatch, 2)
    split, split_counters = _cold_table1(n_accesses)
    assert "table1-helper" in ran_on  # the helper really simulated

    _cpus(monkeypatch, 1)
    serial, serial_counters = _cold_table1(n_accesses)

    assert list(split) == list(serial) == ["is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"]
    assert split == serial
    assert _bits(split) == _bits(serial)
    assert split_counters == serial_counters
    assert set(serial_counters) == {
        "cachesim.accesses",
        "cachesim.line_fills",
        "cachesim.dram_accesses",
    }
    assert serial_counters["cachesim.accesses"] == 8 * n_accesses


def test_one_cpu_host_starts_no_thread(monkeypatch):
    class NoThread:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a one-CPU host must simulate serially")

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(stats.threading, "Thread", NoThread)
    before = threading.active_count()
    profiles = table1_profile(n_accesses=6000)
    assert len(profiles) == 8
    assert threading.active_count() == before


def test_cpu_count_fallback_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert stats._usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert stats._usable_cpus() == 1


def test_helper_failure_reraises_in_caller(monkeypatch):
    real = stats.profile_kernel

    def failing_on_helper(kernel, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"helper failed on {kernel}")
        time.sleep(0.05)  # hold the caller so the helper takes a kernel
        return real(kernel, *args, **kwargs)

    monkeypatch.setattr(stats, "profile_kernel", failing_on_helper)
    _cpus(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="helper failed on"):
        table1_profile(n_accesses=6000)
    assert threading.active_count() == before


def test_default_path_leaves_no_trace_memoised(monkeypatch):
    _cpus(monkeypatch, 2)
    table1_profile(n_accesses=6000)
    assert not trace._trace_cache


def test_explicit_hierarchy_reuses_memoised_traces():
    first = profile_kernel("cg", xeon8170_hierarchy(), n_accesses=6000, seed=11)
    cached = trace._trace_cache[("cg", 6000, 11)]
    second = profile_kernel("cg", xeon8170_hierarchy(), n_accesses=6000, seed=11)
    assert first == second
    assert trace._trace_cache[("cg", 6000, 11)] is cached
    assert len(trace._trace_cache) == 1


def test_traces_are_int32_until_an_address_reaches_2_31():
    addrs, _, _ = trace._build_trace_uncached("mg", 6000, 42)
    assert addrs.dtype == np.int32
    assert trace._narrow(np.array([0, 2**31 - 1])).dtype == np.int32
    wide = trace._narrow(np.array([0, 2**31], dtype=np.int64))
    assert wide.dtype == np.int64 and wide[1] == 2**31


def _traced(fn):
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        return result, current, peak
    finally:
        tracemalloc.stop()


def test_cold_table1_memory_is_bounded(monkeypatch):
    """tracemalloc over one cold ``table1_profile(n_accesses=60_000)``.

    * Kernels in flight: at most 2.  Four usable CPUs are faked so the
      two-thread cap, not this host, is what holds the count.  Counted
      directly: a third kernel's peak rarely coincides with the other
      two under the GIL, so the traced peak alone cannot see it.
    * Two-thread peak: bound 9.5 MiB; measured 7.3-8.6 MiB (IS's
      streaming-bypass resolution peaks at 5.5 MiB, the next largest
      kernel, CG, at 3.6 MiB).
    * Memory still traced once it returns: bound 0.25 MiB; measured
      0.01 MiB (eight ``StallProfile`` objects).  Memoising the default
      path's traces again holds 2.3 MiB here.
    * Serial peak (one CPU): bound 5.6 MiB; measured 5.49 MiB, IS with
      its int32 trace alive; int64 traces read 5.72 MiB.
    """
    in_flight = 0
    most = 0
    lock = threading.Lock()
    real = stats.profile_kernel

    def counting(*args, **kwargs):
        nonlocal in_flight, most
        with lock:
            in_flight += 1
            most = max(most, in_flight)
        try:
            return real(*args, **kwargs)
        finally:
            with lock:
                in_flight -= 1

    monkeypatch.setattr(stats, "profile_kernel", counting)
    _cpus(monkeypatch, 4)
    table1_profile(n_accesses=60_000)  # warm one-off allocations
    clear_profile_cache()
    clear_trace_cache()
    most = 0

    profiles, held, peak = _traced(lambda: table1_profile(n_accesses=60_000))
    assert len(profiles) == 8
    assert most == 2
    assert peak <= 9.5 * MIB, f"two-thread peak {peak / MIB:.2f} MiB"
    assert held <= 0.25 * MIB, f"{held / MIB:.2f} MiB still held"

    _cpus(monkeypatch, 1)
    clear_profile_cache()
    clear_trace_cache()
    _, _, serial_peak = _traced(lambda: table1_profile(n_accesses=60_000))
    assert serial_peak <= 5.6 * MIB, f"serial peak {serial_peak / MIB:.2f} MiB"
