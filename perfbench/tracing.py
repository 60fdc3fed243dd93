"""In-memory spans around each layer's public calls, recorded from outside.

The program is not modified: :func:`install` replaces the public
functions and methods named below with timing wrappers, in the module
that defines them and in every loaded module that imported them by
name.  Each span has a name, start, end, parent and a request id; spans
stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "rid": parent["rid"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, fn, name: str, on_call=None, on_return=None):
        """``fn`` under a span; hooks see ``(span, args, kwargs[, result])``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.start(name)
            if on_call is not None:
                on_call(span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_return is not None:
                on_return(span, result)
            return result

        return wrapper

    def dump(self) -> list[dict]:
        with self._lock:
            return list(self.spans)


def _patch_function(module_name: str, attr: str, replace) -> None:
    """Swap a module-level function everywhere it was imported by name."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapped = replace(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__dict__", {}).get(attr) is original:
            setattr(loaded, attr, wrapped)


def _patch_method(module_name: str, cls_name: str, attr: str, replace) -> None:
    cls = getattr(importlib.import_module(module_name), cls_name)
    setattr(cls, attr, replace(getattr(cls, attr)))


#: Modules each group needs loaded before patching, so that every module
#: that imported a wrapped function by name is found and patched too.
_PRELOAD = {
    "model": ("repro.core.sweep", "repro.core.plan", "repro.core.experiment"),
    "harness": ("repro.harness.export", "repro.harness.tables", "repro.harness.figures"),
    "service": ("repro.service.api", "repro.service.jobs", "repro.store.store",
                "repro.explore.whatif"),
    "npb": ("repro.npb.suite",),
}


def install(tracer: Tracer, groups: tuple[str, ...]) -> None:
    """Wrap the public calls of the selected layer groups (keys of ``_PRELOAD``)."""
    for group in groups:
        for module in _PRELOAD[group]:
            importlib.import_module(module)
    t = tracer
    if "model" in groups:
        _patch_method("repro.core.sweep", "SweepEngine", "run_many",
                      lambda f: t.wrap(f, "sweep.run_many"))
        _patch_method("repro.core.experiment", "ExperimentRunner", "run_many",
                      lambda f: t.wrap(f, "model.batch"))

        def planned(span, result):
            span["configs"] = span.pop("pending", 0)

        def plan_call(span, args, kwargs):
            groups_arg = args[1] if len(args) > 1 else kwargs["groups"]
            span["pending"] = sum(len(group) for group in groups_arg)

        _patch_function("repro.core.plan", "plan_groups",
                        lambda f: t.wrap(f, "model.plan", plan_call, planned))
    if "harness" in groups:
        import repro.harness.figures as figures
        import repro.harness.tables as tables

        _patch_function("repro.harness.export", "export_all",
                        lambda f: t.wrap(f, "harness.export"))
        _patch_function("repro.cachesim.stats", "table1_profile",
                        lambda f: t.wrap(f, "cachesim.table1"))
        _patch_function("repro.faults.atomic", "write_text_atomic",
                        lambda f: t.wrap(f, "io.write"))
        for builders in (tables.TABLE_BUILDERS, figures.FIGURE_BUILDERS):
            for number, builder in builders.items():
                builders[number] = t.wrap(builder, "harness.render")
    if "service" in groups:
        _install_service(t)
    if "npb" in groups:
        import repro.npb.suite as suite

        def kernel(span, args, kwargs):
            span["kernel"] = args[0]

        suite.run_benchmark = t.wrap(suite.run_benchmark, "npb.kernel", kernel)


def _install_service(t: Tracer) -> None:
    job_ids: dict = {}
    submitted: dict = {}

    def remember_id(span, job_id):
        job_ids[span.pop("request")] = job_id
        span["rid"] = job_id

    def id_call(span, args, kwargs):
        span["request"] = args[1]

    def submit_call(span, args, kwargs):
        submitted[args[1]] = span["start"]

    def submit_return(span, result):
        job, deduplicated = result
        span["rid"] = job.job_id
        span["dedup"] = deduplicated

    def execute_call(span, args, kwargs):
        request = args[1]
        span["kind"] = request.kind
        span["rid"] = job_ids.get(request)
        if request in submitted:
            span["queue_wait"] = span["start"] - submitted[request]

    _patch_function("repro.service.requests", "request_job_id",
                    lambda f: t.wrap(f, "service.job_id", id_call, remember_id))
    _patch_function("repro.service.requests", "estimate",
                    lambda f: t.wrap(f, "service.estimate"))
    _patch_function("repro.service.requests", "execute_request",
                    lambda f: t.wrap(f, "service.execute", execute_call))
    _patch_method("repro.service.jobs", "JobManager", "submit",
                  lambda f: t.wrap(f, "service.submit", submit_call, submit_return))
    _patch_method("repro.store.store", "ResultStore", "get",
                  lambda f: t.wrap(f, "store.get"))
    _patch_method("repro.store.store", "ResultStore", "put",
                  lambda f: t.wrap(f, "store.put"))
    _patch_function("repro.explore.whatif", "upgrade_ladder",
                    lambda f: t.wrap(f, "whatif"))


# ----------------------------------------------------------------------
# Span arithmetic (parent side)
# ----------------------------------------------------------------------


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += duration(span)
    return {span["id"]: duration(span) - covered[span["id"]] for span in spans}
