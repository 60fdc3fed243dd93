"""repro.obs -- deterministic-by-default telemetry for the sweep pipeline.

One process-wide recorder slot holds either a :class:`NullRecorder` (the
default: every operation a no-op) or a :class:`TelemetryRecorder`.
Instrumented call sites go through the module-level helpers below and
never branch on whether telemetry is enabled -- enabling is one call to
:func:`install`, disabling one call to :func:`disable`, and the swap is
the only conditional in the whole layer.

Usage::

    from repro import obs

    recorder = obs.install()          # start recording
    build_table(6)                    # instrumented code runs unchanged
    obs.disable()                     # back to the zero-overhead no-op
    print(render_text(recorder))      # repro.obs.export

Everything a recorder collects except the ``timings`` section (fed only
by :func:`host_timer`, the explicitly marked wall-clock site) is a pure
function of the work performed: byte-identical across serial, parallel
and warm-cache executions of the same grid.  ``tests/obs`` locks that
invariant in.
"""

from __future__ import annotations

import threading

from .recorder import HostTimer, NullRecorder, TelemetryRecorder

__all__ = [
    "NullRecorder",
    "TelemetryRecorder",
    "recorder",
    "install",
    "disable",
    "is_enabled",
    "incr",
    "span",
    "open_span",
    "activate",
    "abandon_span",
    "counter_value",
    "host_timer",
]

_recorder_lock = threading.Lock()
_recorder: NullRecorder | TelemetryRecorder = NullRecorder()


def recorder() -> NullRecorder | TelemetryRecorder:
    """The currently installed recorder (the shared no-op by default)."""
    return _recorder


def install(rec: TelemetryRecorder | None = None) -> TelemetryRecorder:
    """Install (and return) a recorder; a fresh one when none is given."""
    global _recorder
    new = rec if rec is not None else TelemetryRecorder()
    with _recorder_lock:
        _recorder = new
    return new


def disable() -> None:
    """Swap the no-op recorder back in (telemetry off, zero overhead)."""
    global _recorder
    with _recorder_lock:
        _recorder = NullRecorder()


def is_enabled() -> bool:
    return _recorder.enabled


# ----------------------------------------------------------------------
# Call-site helpers: one attribute lookup + one call when disabled.
# ----------------------------------------------------------------------


def incr(name: str, n: int = 1) -> None:
    """Add ``n`` to the named counter."""
    _recorder.incr(name, n)


def span(name: str):
    """Context manager: open a (merged-by-name) child span and enter it."""
    return _recorder.span(name)


def open_span(name: str):
    """Open a child span under the current one without entering it.

    Use from the thread that *submits* parallel work, so the span tree's
    shape is fixed in deterministic submission order; hand the returned
    node to the worker, which enters it with :func:`activate`.
    """
    return _recorder.open_span(name)


def activate(node):
    """Context manager entering a span opened via :func:`open_span`."""
    return _recorder.activate(node)


def abandon_span(node) -> None:
    """Release a span handle from :func:`open_span` that will never run.

    Keeps the span tree honest under failure: a handle opened for work
    that ends up not executing (an earlier group raising first) must not
    count as an execution.
    """
    _recorder.abandon_span(node)


def counter_value(name: str) -> int:
    """Current value of one counter (0 when absent or telemetry is off).

    The service layer's ``/health``/``/stats`` endpoints and the dedup
    benchmarks read single counters (``service.executions``,
    ``sweep.containment_waits``) without snapshotting the whole report.
    """
    return _recorder.counters_snapshot().get(name, 0)


def host_timer(name: str) -> HostTimer:
    """A wall-clock interval timer (the *only* sanctioned timing site).

    Always measures -- callers need ``elapsed_s`` even with telemetry off
    -- but records into the report's volatile ``timings`` section only
    when a real recorder is installed.
    """
    return HostTimer(name, _recorder)
