"""Typed error taxonomy for resilient sweep execution.

Every failure sorts into exactly one of three buckets, and each bucket
has one -- and only one -- recovery policy:

``transient``
    :class:`TransientError` (and subclasses): the work is expected to
    succeed when re-run.  The sweep engine does not retry in place; the
    failure propagates once, and the caller re-runs (a re-run campaign
    resumes from the result store).
``dnr``
    :class:`repro.core.perfmodel.DNRError`: the configuration *cannot*
    run (the paper's "DNR" cells).  The verdict is a result, not a
    failure -- it is cached and replayed like any other result.
``fatal``
    Everything else: a real bug or an unrecoverable environment problem.
    Propagated to the caller exactly once; the engine never silently
    re-executes work to paper over it.

Keeping the classification in one function (rather than scattered
``except`` clauses) is what lint rule R007 enforces across
``repro.core`` and ``repro.harness``.
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "TransientError",
    "classify",
]


class FaultError(Exception):
    """Base class for resilience-layer failures."""


class TransientError(FaultError):
    """A failure expected to succeed when re-run (flaky worker, busy I/O)."""


def classify(exc: BaseException) -> str:
    """Sort an exception into the taxonomy: transient / dnr / fatal."""
    # Imported lazily: repro.core.sweep imports this package, and the
    # taxonomy must stay importable without the model stack.
    from repro.core.perfmodel import DNRError

    if isinstance(exc, TransientError):
        return "transient"
    if isinstance(exc, DNRError):
        return "dnr"
    return "fatal"
