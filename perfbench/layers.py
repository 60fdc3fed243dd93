"""Per-layer metrics from recorded spans and ``repro.obs`` counters.

Spans come from :mod:`perfbench.tracing` (one list per traced process);
counters from the program's own ``repro.obs`` recorder in that process.
:class:`LayerTotals` adds processes up; :meth:`LayerTotals.metrics`
normalises by the workload's operations.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from .common import median, percentile, ratio
from .tracing import duration, self_times

KERNELS = ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp")
REQUEST_KINDS = ("sweep", "table", "figure", "whatif")


class LayerTotals:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.counters: Counter = Counter()
        self.queue_waits: list[float] = []
        self.executions: dict[str, list[float]] = defaultdict(list)

    def add(self, spans: list[dict], counters: dict[str, int]) -> None:
        own = self_times(spans)
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            name = span["name"]
            took = duration(span)
            if name in ("sweep.run_many", "harness.render"):
                self.seconds[name] += own[span["id"]]
                parent = by_id.get(span["parent"])
                if name == "sweep.run_many" and parent and parent["name"] == "harness.export":
                    self.seconds["harness.prefetch"] += took
            elif name == "npb.kernel":
                self.seconds[f"npb.{span['kernel']}"] += took
            elif name == "service.execute":
                self.executions[span["kind"]].append(took)
                if "queue_wait" in span:
                    self.queue_waits.append(span["queue_wait"])
            elif name == "service.job_id":
                self.seconds["service.estimate"] += took
            else:
                self.seconds[name] += took
            self.counts[name] += 1
            if name == "model.plan":
                self.counts["model.plan.configs"] += span.get("configs", 0)
        self.counters.update(counters)

    def metrics(self, ops: int) -> dict[str, float]:
        """Layer metrics; ``*_s`` and counts are per workload operation."""
        s, n, c = self.seconds, self.counts, self.counters

        def per_op(value: float) -> float:
            return ratio(value, ops)

        evaluated = c["model.batch_points"] + c["model.scalar_calls"]
        hits, misses = c["sweep.cache_hits"], c["sweep.cache_misses"]
        store_hits, store_misses = c["store.hits"], c["store.misses"]
        out = {
            "cachesim.table1_s": per_op(s["cachesim.table1"]),
            "harness.prefetch_s": per_op(s["harness.prefetch"]),
            "harness.render_s": per_op(s["harness.render"]),
            "io.write_s": per_op(s["io.write"]),
            "io.files": per_op(n["io.write"]),
            "sweep.run_many_s": per_op(s["sweep.run_many"]),
            "model.plan_s": per_op(s["model.plan"]),
            "model.batch_s": per_op(s["model.batch"]),
            "model.configs": per_op(evaluated),
            "sweep.families": per_op(c["model.batch_calls"]),
            "sweep.planner_share": ratio(n["model.plan.configs"], evaluated),
            "sweep.hit_ratio": ratio(hits, hits + misses),
            "service.estimate_s": per_op(s["service.estimate"]),
            "service.dedup_ratio": ratio(c["service.dedup_attached"], c["service.submitted"]),
            "service.store_served_ratio": ratio(c["service.store_served"], c["service.submitted"]),
            "service.queue_wait_p50_s": median(self.queue_waits),
            "service.queue_wait_p90_s": percentile(self.queue_waits, 0.9),
            "service.rejected": float(c["service.rejected"]),
            "store.put_s": per_op(s["store.put"]),
            "store.get_s": per_op(s["store.get"]),
            "store.writes": per_op(c["store.writes"]),
            "store.bytes_written": per_op(c["store.bytes_written"]),
            "store.hit_ratio": ratio(store_hits, store_hits + store_misses),
            "whatif.s": per_op(s["whatif"]),
        }
        for kind in REQUEST_KINDS:
            out[f"service.execute_{kind}_s"] = median(self.executions[kind])
        for kernel in KERNELS:
            out[f"npb.{kernel}_s"] = per_op(s[f"npb.{kernel}"])
        return out
