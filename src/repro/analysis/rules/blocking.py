"""R010: blocking call under a held lock -- the single-flight guardrail.

The sweep engine's concurrency discipline is strict: locks guard state
transitions, never waiting.  ``Event.wait()`` and ``Future.result()``
are always called *outside* ``self._lock`` (single-flight followers wait
on the event after releasing the lock), and the job manager hands work
to its queue without waiting under its lock.  A blocking call that
creeps back under a lock serialises every other thread behind one
sleeper -- or deadlocks outright when the blocked-on work needs the
same lock.

The rule walks the whole-program lock model: a finding is a direct
blocking operation (``.wait()``, ``.result()``, ``time.sleep``,
``subprocess.*``) executed while any project lock is held, or a call
made under a held lock whose transitive closure reaches one.  File I/O
(``open()``, ``Path.read_text/write_text/...``) counts only when the
lock holder lives in a *hot* module (``repro.core``, ``repro.obs``):
the sweep/observability paths must never do I/O under a lock, while
``repro.store`` writes its recency log under the store lock by design
(a consistent index beats concurrency there).
"""

from __future__ import annotations

from collections.abc import Iterator

from ..callgraph import ProjectIndex, split_fn_id
from ..core import Finding
from ..locks import ConcurrencyRule
from ..registry import register

__all__ = ["BlockingUnderLockRule", "is_hot_module"]

#: Modules whose lock regions must stay I/O-free.
HOT_MODULE_PREFIXES = ("repro.core", "repro.obs")


def is_hot_module(module: str) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in HOT_MODULE_PREFIXES
    )


@register
class BlockingUnderLockRule(ConcurrencyRule):
    code = "R010"
    name = "blocking-under-lock"
    description = (
        "blocking operation (wait/result/sleep/subprocess, or file I/O in "
        "hot modules) reachable while a lock is held"
    )

    def project_findings(self, facts_by_path: dict[str, object]) -> Iterator[Finding]:
        index = ProjectIndex(facts_by_path)
        for fnid, path, fn in index.functions():
            module, _ = split_fn_id(fnid)
            hot = is_hot_module(module)
            for op, io, line, col, held in fn.get("blocking", ()):
                held_locks = index.confirmed(held)
                if not held_locks or (io and not hot):
                    continue
                yield Finding(
                    self.code, path, line, col,
                    f"blocking `{op}` while `{held_locks[0]}` is held; "
                    "release the lock first (snapshot state under the "
                    "lock, block outside it)",
                )
            for chain, line, col, held in fn.get("calls", ()):
                held_locks = index.confirmed(held)
                if not held_locks:
                    continue
                target = index.resolve_call(fnid, chain)
                if target is None:
                    continue
                ops = sorted(
                    op for op, io in index.blocking_closure(target)
                    if not io or hot
                )
                if not ops:
                    continue
                yield Finding(
                    self.code, path, line, col,
                    f"call to `{chain}` reaches blocking `{ops[0]}` while "
                    f"`{held_locks[0]}` is held; move the call outside "
                    "the locked region",
                )
