"""Seeded fault plans and the process-wide installation slot.

Mirrors :mod:`repro.obs`: one module-level slot holds either a
:class:`NullFaultPlan` (the default -- every probe a no-op) or a
:class:`FaultPlan`; instrumented call sites go through :func:`inject`
and never branch on whether injection is enabled.

Determinism contract
--------------------
A plan's entire schedule is a pure function of ``(seed, site, key,
attempt)``: attempt ``k`` at a site/key fails iff a sha256-derived
uniform for that exact tuple falls under the configured rate.  The
attempt index is a per-``(kind, site, key)`` counter inside the plan, so
the schedule is independent of thread interleaving and execution order
-- sequential and concurrent campaigns see byte-identical fault
sequences, which is what lets the crash drill replay a seeded crash.

``max_failures`` caps how many times any single ``(site, key)`` may fail
per kind (default 2), so re-running a faulted site at least
``max_failures`` times is guaranteed to converge.
"""

from __future__ import annotations

import hashlib
import threading
import time

from repro import obs

from .taxonomy import InjectedIOError, InjectedTransientError

__all__ = [
    "NullFaultPlan",
    "FaultPlan",
    "plan",
    "install",
    "disable",
    "is_enabled",
    "inject",
]

#: Fault kinds a plan can schedule at a probe site.
KINDS = ("slow", "transient", "io")


class NullFaultPlan:
    """The disabled plan: every probe is a cheap no-op."""

    enabled = False

    def inject(self, site: str, key: str, kinds=("transient", "slow")) -> None:
        pass

    def stats(self) -> dict[str, int]:
        return {}


class FaultPlan:
    """A deterministic, seeded schedule of injected faults.

    Parameters
    ----------
    seed:
        Base seed; the whole schedule derives from it.
    transient_rate:
        Probability that a probe raises :class:`InjectedTransientError`.
    io_rate:
        Probability that an ``io``-kind probe raises
        :class:`InjectedIOError` (simulating a crash mid-artifact-write).
    slow_rate, slow_delay_s:
        Probability and duration of an injected slow-worker delay.
    max_failures:
        Per-``(site, key)`` cap on injected failures of each kind; keeps
        every schedule convergent under a finite number of re-runs.
    sleep:
        Delay implementation (injectable so tests run at full speed).
    """

    enabled = True

    def __init__(
        self,
        seed: int = 0,
        transient_rate: float = 0.0,
        io_rate: float = 0.0,
        slow_rate: float = 0.0,
        slow_delay_s: float = 0.0,
        max_failures: int = 2,
        sleep=time.sleep,
    ) -> None:
        for name, rate in (
            ("transient_rate", transient_rate),
            ("io_rate", io_rate),
            ("slow_rate", slow_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if max_failures < 0:
            raise ValueError("max_failures must be >= 0")
        self.seed = seed
        self.transient_rate = transient_rate
        self.io_rate = io_rate
        self.slow_rate = slow_rate
        self.slow_delay_s = slow_delay_s
        self.max_failures = max_failures
        self._sleep = sleep
        self._lock = threading.Lock()
        self._attempts: dict[tuple, int] = {}
        self._failures: dict[tuple, int] = {}
        self._injected: dict[str, int] = {}

    # -- schedule ------------------------------------------------------

    def _uniform(self, kind: str, site: str, key: str, attempt: int) -> float:
        payload = f"{self.seed}|{kind}|{site}|{key}|{attempt}".encode()
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "little") / 2.0**64

    def _scheduled(self, kind: str, rate: float, site: str, key: str) -> bool:
        """Advance the (kind, site, key) attempt counter; fire per schedule."""
        if rate <= 0.0:
            return False
        cell = (kind, site, key)
        with self._lock:
            attempt = self._attempts.get(cell, 0)
            self._attempts[cell] = attempt + 1
            if self._failures.get(cell, 0) >= self.max_failures:
                return False
            if self._uniform(kind, site, key, attempt) >= rate:
                return False
            self._failures[cell] = self._failures.get(cell, 0) + 1
            self._injected[kind] = self._injected.get(kind, 0) + 1
        return True

    # -- probe ---------------------------------------------------------

    def inject(self, site: str, key: str, kinds=("transient", "slow")) -> None:
        """Fire this probe's scheduled faults (if any) for ``site``/``key``.

        ``slow`` delays never raise; ``transient`` raises
        :class:`InjectedTransientError`; ``io`` raises
        :class:`InjectedIOError`.  Each raised fault is wrapped in a
        ``fault[<kind>]`` telemetry span and counted under
        ``faults.injected`` / ``faults.<kind>``.
        """
        if "slow" in kinds and self._scheduled("slow", self.slow_rate, site, key):
            with obs.span("fault[slow]"):
                obs.incr("faults.injected")
                obs.incr("faults.slow")
                self._sleep(self.slow_delay_s)
        if "transient" in kinds and self._scheduled(
            "transient", self.transient_rate, site, key
        ):
            with obs.span("fault[transient]"):
                obs.incr("faults.injected")
                obs.incr("faults.transient")
                raise InjectedTransientError(
                    f"injected transient fault at {site}[{key}]"
                )
        if "io" in kinds and self._scheduled("io", self.io_rate, site, key):
            with obs.span("fault[io]"):
                obs.incr("faults.injected")
                obs.incr("faults.io")
                raise InjectedIOError(f"injected I/O fault at {site}[{key}]")

    def stats(self) -> dict[str, int]:
        """Injected-fault totals per kind (sorted, for reports)."""
        with self._lock:
            return dict(sorted(self._injected.items()))


# ----------------------------------------------------------------------
# The process-wide slot (same shape as the repro.obs recorder slot).
# ----------------------------------------------------------------------

_plan_lock = threading.Lock()
_plan: NullFaultPlan | FaultPlan = NullFaultPlan()


def plan() -> NullFaultPlan | FaultPlan:
    """The currently installed plan (the shared no-op by default)."""
    return _plan


def install(new: FaultPlan) -> FaultPlan:
    """Install (and return) a fault plan."""
    global _plan
    with _plan_lock:
        _plan = new
    return new


def disable() -> None:
    """Swap the no-op plan back in (fault injection off)."""
    global _plan
    with _plan_lock:
        _plan = NullFaultPlan()


def is_enabled() -> bool:
    return _plan.enabled


def inject(site: str, key: str, kinds=("transient", "slow")) -> None:
    """Probe the installed plan (no-op unless a plan is installed)."""
    _plan.inject(site, key, kinds)
