"""EP on two threads: the split is invisible in every output.

``ep_kernel`` samples each batch in two halves, run on the calling thread
plus one ``ep-helper`` thread when two CPUs are usable.  These tests pin
the split against the serial path bit for bit, check that it degrades to
serial on a one-CPU host, that a helper failure surfaces in the caller,
and that the memory it costs stays bounded.  The hypothesis differential
against a one-shot reference runs under both masks in
``test_exactness.py``.
"""

import os
import threading
import time
import tracemalloc

import pytest

from repro import _two_threads
from repro.npb import ep
from repro.npb.ep import ep_kernel

MIB = 1 << 20


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _bits(result):
    sx, sy, counts = result
    return sx.hex(), sy.hex(), counts.tolist()


def test_helper_computes_batches_bit_identically(monkeypatch):
    ran_on = []
    real = ep._fill_half

    def recording(*args, **kwargs):
        ran_on.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(ep, "_fill_half", recording)
    _cpus(monkeypatch, 2)
    split = ep_kernel(2**20)
    assert "ep-helper" in ran_on  # the helper really sampled
    assert len(ran_on) == 2 * (2**20 // 2**18)  # two halves per batch

    _cpus(monkeypatch, 1)
    ran_on.clear()
    serial = ep_kernel(2**20)
    assert set(ran_on) == {threading.current_thread().name}
    assert _bits(split) == _bits(serial)


def test_one_cpu_mask_starts_no_thread(monkeypatch):
    class NoThread:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a one-CPU host must sample serially")

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(_two_threads.threading, "Thread", NoThread)
    before = threading.active_count()
    sx, sy, counts = ep_kernel(2**19)
    assert counts.sum() > 0
    assert threading.active_count() == before


def test_helper_failure_reraises_in_caller(monkeypatch):
    real = ep._fill_half

    def failing_on_helper(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper failed")
        time.sleep(0.05)  # hold the caller so the helper takes a half
        return real(*args, **kwargs)

    monkeypatch.setattr(ep, "_fill_half", failing_on_helper)
    _cpus(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="helper failed"):
        ep_kernel(2**18)
    assert threading.active_count() == before


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ep_memory_is_bounded(monkeypatch):
    """tracemalloc over one ``ep_kernel(2**24)`` (class S).

    * Halves in flight: 2, so the traced run really is the split one.
      Four usable CPUs are faked; a batch has two halves and one batch
      buffer whatever the CPU count.
    * Two-thread peak: bound 6 MiB, the class S bound of
      ``test_working_set.py`` and half of FT's class S peak (12.1 MiB);
      measured 5.45 MiB: the 4 MiB batch buffer shared by both halves,
      two 0.5 MiB scratch buffers and each thread's accepted-pair
      indices.  A batch per thread (two batch buffers) needs 6.3 MiB for
      the accepted deviates alone.
    * Serial peak (one CPU): bound 5.5 MiB; measured 5.24 MiB.
    """
    in_flight = 0
    most = 0
    lock = threading.Lock()
    real = ep._fill_half

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

    monkeypatch.setattr(ep, "_fill_half", counting)
    _cpus(monkeypatch, 4)
    ep_kernel(2**18)  # warm one-off allocations
    most = 0
    peak = _traced_peak(lambda: ep_kernel(2**24))
    assert most == 2
    assert peak <= 6 * MIB, f"two-thread peak {peak / MIB:.2f} MiB"

    _cpus(monkeypatch, 1)
    serial_peak = _traced_peak(lambda: ep_kernel(2**24))
    assert serial_peak <= 5.5 * MIB, f"serial peak {serial_peak / MIB:.2f} MiB"
