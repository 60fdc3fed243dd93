"""R001: determinism -- seeded ``Generator`` streams, no wall clock.

SweepEngine memoisation (and with it every table/figure regenerator)
assumes a config's result is a pure function of its seed and fields:
batched, cached, store-served and one-at-a-time executions must be
byte-identical, whichever of the service's ``JobManager`` worker threads
runs them and whether :func:`repro._two_threads.run_in_order` splits the
work over its helper thread.  Three things silently break that contract:

* **global-state NumPy RNG** (``np.random.rand``/``seed``/...): draws
  depend on every draw any thread made before, so results vary with
  execution order;
* **stdlib ``random`` module functions**: same shared-state problem;
* **wall-clock reads** (``time.time``, ``perf_counter``, ...): results
  depend on when -- and how loaded -- the run happens.

The sanctioned pattern is ``np.random.default_rng(seed)`` (or a
``Generator``/``SeedSequence`` derived from one) with an explicit seed.
Modules that *deliberately* time real execution (STREAM, the functional
NPB timers) route the measurement through ``repro.obs.host_timer``, whose
single ``perf_counter`` site carries the one ``# repro: noqa[R001]``
suppression (rule R006 enforces the funnel).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..core import Finding, Rule, SourceModule
from ..registry import register

__all__ = ["DeterminismRule"]

#: numpy.random attributes that are *not* the shared global stream.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                 "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}

#: Wall-clock reads (anything whose result depends on when you call it).
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
}

#: stdlib ``random`` module: every callable is global-state except these.
_STDLIB_RANDOM_OK = {"Random", "SystemRandom", "getstate", "setstate"}


@register
class DeterminismRule(Rule):
    code = "R001"
    name = "determinism"
    description = (
        "global-state RNG, unseeded generators and wall-clock reads break "
        "the byte-identical seeded-run contract SweepEngine caching relies on"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        imports = module.imports
        for node in module.nodes_of(ast.Call):
            resolved = imports.resolve(node.func)
            if resolved is None:
                continue
            yield from self._check_call(module, node, resolved)

    def _check_call(
        self, module: SourceModule, node: ast.Call, resolved: str
    ) -> Iterator[Finding]:
        if resolved in _WALL_CLOCK:
            yield module.finding(
                self.code, node,
                f"wall-clock read `{resolved}` makes results depend on when "
                "they run; model results must be pure functions of the seed",
            )
            return

        parts = resolved.split(".")
        if parts[0] == "numpy" and len(parts) >= 2 and parts[1] == "random":
            attr = parts[2] if len(parts) >= 3 else ""
            if attr and attr not in _NP_RANDOM_OK:
                yield module.finding(
                    self.code, node,
                    f"`numpy.random.{attr}` draws from the process-global "
                    "stream; use `np.random.default_rng(seed)` so draws are "
                    "keyed per config",
                )
                return
            if attr == "default_rng" and not _is_seeded(node):
                yield module.finding(
                    self.code, node,
                    "`default_rng()` without a seed is entropy-seeded; pass "
                    "an explicit seed so reruns reproduce bit for bit",
                )
            return

        if parts[0] == "random" and len(parts) == 2:
            attr = parts[1]
            if attr == "Random":
                if not _is_seeded(node):
                    yield module.finding(
                        self.code, node,
                        "`random.Random()` without a seed is entropy-seeded; "
                        "pass an explicit seed",
                    )
            elif attr not in _STDLIB_RANDOM_OK:
                yield module.finding(
                    self.code, node,
                    f"`random.{attr}` mutates the interpreter-global RNG "
                    "state; use a seeded `np.random.default_rng` stream",
                )


def _is_seeded(call: ast.Call) -> bool:
    """Whether an RNG constructor call received an explicit (non-None) seed."""
    for arg in call.args:
        if not (isinstance(arg, ast.Constant) and arg.value is None):
            return True
    for kw in call.keywords:
        if kw.arg in (None, "seed") and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ):
            return True
    return False
