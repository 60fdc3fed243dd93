"""repro.faults -- the error taxonomy and crash-safe artifact writes.

The paper's methodology is long multi-machine sweeps; a campaign must
survive crashes mid-write without corrupting memoised results or
artifacts.  This package supplies the two pieces every layer shares:

* a **typed error taxonomy** (:mod:`repro.faults.taxonomy`): DNR
  verdicts are cached, everything else propagates exactly once;
* **crash-safe artifact writes** (:func:`write_text_atomic`).

Durable results live in :mod:`repro.store`: an interrupted run resumes
by rerunning against the same store, and converges to artifacts
byte-identical to an uninterrupted run (the resume drills in
``tests/service/test_campaign.py`` kill a writer, truncate an object
and fail a write with ``ENOSPC`` to prove it).
"""

from __future__ import annotations

from .atomic import write_text_atomic
from .taxonomy import FaultError, TransientError, classify

__all__ = [
    "FaultError",
    "TransientError",
    "classify",
    "write_text_atomic",
]
