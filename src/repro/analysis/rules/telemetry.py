"""R006: telemetry discipline -- timing and spans go through ``repro.obs``.

The telemetry layer's determinism contract (counters and span trees
byte-identical across serial/parallel/cached runs, wall-clock confined to
the report's ``timings`` section) only holds if instrumentation has one
funnel.  Two things undermine it:

* **direct wall-clock timing** (``time.perf_counter`` and friends)
  outside the ``repro/obs`` package: the interval bypasses the recorder,
  so `repro stats` under-reports where time went -- and the site needs
  its own R001 suppression.  Route it through
  ``repro.obs.host_timer(name)``, which measures identically, exposes
  ``elapsed_s``, and records into ``timings`` when telemetry is on;
* **hand-built span objects** (instantiating ``Span`` directly): nodes
  created outside a recorder are invisible to the tree, break the
  well-nestedness bookkeeping, and dodge the merged-by-name invariant.
  Use ``repro.obs.span(name)`` / ``open_span(name)`` instead.

Modules inside ``repro/obs`` itself are exempt -- that is where the one
sanctioned ``perf_counter`` site lives.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePath

from ..core import Finding, Rule, SourceModule
from ..registry import register

__all__ = ["TelemetryRule"]

#: Wall-clock timing primitives that must be wrapped by repro.obs.
_TIMING_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns",
}

#: Telemetry internals that must never be constructed at call sites.
_SPAN_INTERNALS = {"repro.obs.recorder.Span", "repro.obs.Span"}


def _inside_obs_package(module: SourceModule) -> bool:
    parts = PurePath(module.display_path).parts
    for repro_idx in (i for i, part in enumerate(parts) if part == "repro"):
        if repro_idx + 1 < len(parts) and parts[repro_idx + 1] == "obs":
            return True
    return False


@register
class TelemetryRule(Rule):
    code = "R006"
    name = "telemetry"
    description = (
        "wall-clock timing and span creation outside repro.obs bypass the "
        "telemetry funnel; use obs.host_timer / obs.span instead"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        if _inside_obs_package(module):
            return
        imports = module.imports
        for node in module.nodes_of(ast.Call):
            resolved = imports.resolve(node.func)
            if resolved is None:
                continue
            if resolved in _TIMING_CALLS:
                yield module.finding(
                    self.code, node,
                    f"direct `{resolved}` bypasses telemetry; wrap the "
                    "interval in `repro.obs.host_timer(name)` so it lands in "
                    "the report's timings section (and R001 stays clean)",
                )
            elif resolved in _SPAN_INTERNALS:
                yield module.finding(
                    self.code, node,
                    "span nodes must come from a recorder; use "
                    "`repro.obs.span(name)` or `repro.obs.open_span(name)` "
                    "instead of instantiating `Span` directly",
                )
