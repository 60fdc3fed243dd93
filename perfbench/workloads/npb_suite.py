"""npb_suite: the functional NPB kernels, the only place they are measured.

Closed loop, one client: each operation is one class-S run of all eight
kernels through ``repro.npb.suite.run_benchmark``, one kernel after the
other.  ``op_time_s`` is the suite's best-case time: the sum over the
kernels of each kernel's fastest run.  The suite takes no inputs beyond
the class, so the seed changes nothing here.  Oracle: every kernel
result must have ``verified`` set (the kernels check themselves against
the official NPB reference values).
"""

from __future__ import annotations

from pathlib import Path

from ..common import Measurement
from ..layers import KERNELS, LayerTotals
from .inproc import run_worker

LATENCY_LIMIT_S = 10.0
NPB_CLASS = "S"


def run(seed: int, seconds: float, traced: bool, tmp: Path) -> Measurement:
    spec = {"seconds": seconds, "npb_class": NPB_CLASS}
    setup, child, out = run_worker("npb_suite", spec, traced, tmp)
    m = Measurement(setup_s=setup, peak_rss_mb=child.peak_rss_mb)
    ops = out["ops"]
    best: dict[str, float] = {}
    for op in ops:
        best[op["kernel"]] = min(op["s"], best.get(op["kernel"], op["s"]))
    for start in range(0, len(ops), len(KERNELS)):
        suite = ops[start:start + len(KERNELS)]
        took = sum(op["s"] for op in suite)
        m.attempted += 1
        m.op_s.append(took)
        complete = sorted(op["kernel"] for op in suite) == sorted(KERNELS)
        if not complete or not all(op["verified"] for op in suite):
            m.failed += 1
        elif took <= LATENCY_LIMIT_S:
            m.good += 1
    m.op_time_s = sum(best.values())
    m.window_s = sum(m.op_s)
    if traced:
        totals = LayerTotals()
        totals.add(out["spans"], out["counters"])
        m.layers = totals.metrics(len(m.op_s))
    return m
