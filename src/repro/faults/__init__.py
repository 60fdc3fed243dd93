"""repro.faults -- deterministic fault injection and resilience primitives.

The paper's methodology is long multi-machine sweeps; at production
scale a campaign must survive crashes mid-write and slow environments
without corrupting memoised results or telemetry.  This package
supplies the four pieces that make that testable:

* a **typed error taxonomy** (:mod:`repro.faults.taxonomy`): DNR
  verdicts are cached, everything else propagates exactly once;
* a **seeded fault plan** (:mod:`repro.faults.plan`) installed behind a
  process-wide slot exactly like :mod:`repro.obs` -- call sites probe
  :func:`inject` unconditionally, and the schedule is a pure function of
  ``(seed, site, key, attempt)`` so faulted runs are reproducible;
* **crash-safe artifact writes** (:func:`write_text_atomic`);
* a **resumable sweep journal** (:class:`SweepJournal`) so interrupted
  regeneration runs restart from completed families.

The key invariant, locked in by ``tests/faults`` and the campaign crash
drill: a run interrupted by an injected fault and then re-run converges
to bit-identical artifacts versus a fault-free run.

The journal names resolve lazily (PEP 562, :mod:`repro._lazy`): an
export that only needs :func:`write_text_atomic` loads the atomic writer
and the plan its ``io`` probe consults, not the journal and its codec.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

from .atomic import write_text_atomic
from .plan import FaultPlan, NullFaultPlan, disable, inject, install, is_enabled, plan
from .taxonomy import (
    FaultError,
    InjectedIOError,
    InjectedTransientError,
    TransientError,
    classify,
)

__all__ = [
    "FaultError",
    "TransientError",
    "InjectedTransientError",
    "InjectedIOError",
    "classify",
    "FaultPlan",
    "NullFaultPlan",
    "plan",
    "install",
    "disable",
    "is_enabled",
    "inject",
    "write_text_atomic",
    "SweepJournal",
    "encode_value",
    "decode_value",
]

__getattr__, __dir__ = lazy_exports(
    globals(), {".journal": ("SweepJournal", "decode_value", "encode_value")}
)
