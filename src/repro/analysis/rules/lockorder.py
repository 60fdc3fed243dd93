"""R009: lock-order inversion -- opposite acquisition orders deadlock.

Two threads that acquire the same pair of locks in opposite orders can
each end up holding one lock while waiting forever for the other.  The
rule runs over the whole-program lock model (:mod:`repro.analysis.locks`
facts stitched together by :class:`repro.analysis.callgraph.ProjectIndex`)
and records every ordered pair ``(held, acquired)`` it can prove: a
direct nested acquisition, or a call made under a held lock whose
transitive acquire-closure grabs another lock.  A pair that also occurs
reversed anywhere in the project is reported at *every* site involved,
each message pointing at one witness for the opposite order.

As a bonus the model also catches guaranteed self-deadlock: re-acquiring
a non-reentrant ``threading.Lock`` already held on the same path
(``RLock`` is exempt -- re-entry is its purpose).

Static caveats: lock identity is per *definition site*, so two instances
of the same class share one id, and the analysis ignores branch
conditions -- both can over-approximate, which is what the suppression
pragma (with a ``-- why``) is for.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..callgraph import ProjectIndex
from ..core import Finding
from ..locks import ConcurrencyRule
from ..registry import register

__all__ = ["LockOrderRule"]


@register
class LockOrderRule(ConcurrencyRule):
    code = "R009"
    name = "lock-order"
    description = (
        "two locks acquired in opposite orders on some interprocedural "
        "path; inconsistent ordering can deadlock"
    )

    def project_findings(self, facts_by_path: dict[str, object]) -> Iterator[Finding]:
        index = ProjectIndex(facts_by_path)
        # (held, acquired) -> list of (path, line, col, via-chain|None)
        pairs: dict[tuple[str, str], list[tuple[str, int, int, str | None]]] = {}
        self_deadlocks: list[tuple[str, int, int, str, str | None]] = []

        for fnid, path, fn in index.functions():
            for lock, line, col, held in fn.get("acquires", ()):
                if not index.is_lock(lock):
                    continue
                for h in index.confirmed(held):
                    if h == lock:
                        if index.lock_kind(lock) == "Lock":
                            self_deadlocks.append((path, line, col, lock, None))
                    else:
                        pairs.setdefault((h, lock), []).append(
                            (path, line, col, None)
                        )
            for chain, line, col, held in fn.get("calls", ()):
                held_locks = index.confirmed(held)
                if not held_locks:
                    continue
                target = index.resolve_call(fnid, chain)
                if target is None:
                    continue
                for lock in sorted(index.acquire_closure(target)):
                    for h in held_locks:
                        if h == lock:
                            if index.lock_kind(lock) == "Lock":
                                self_deadlocks.append(
                                    (path, line, col, lock, chain)
                                )
                        else:
                            pairs.setdefault((h, lock), []).append(
                                (path, line, col, chain)
                            )

        for (first, second), sites in sorted(pairs.items()):
            if first >= second or (second, first) not in pairs:
                continue
            inverse_sites = pairs[(second, first)]
            by_pos = lambda s: (s[0], s[1], s[2])  # noqa: E731
            witness_fwd = min(sites, key=by_pos)
            witness_rev = min(inverse_sites, key=by_pos)
            for path, line, col, via in sites:
                yield self._inversion(
                    path, line, col, via, first, second, witness_rev
                )
            for path, line, col, via in inverse_sites:
                yield self._inversion(
                    path, line, col, via, second, first, witness_fwd
                )

        for path, line, col, lock, via in self_deadlocks:
            how = f"call to `{via}` re-acquires" if via else "re-acquires"
            yield Finding(
                self.code, path, line, col,
                f"{how} non-reentrant lock `{lock}` already held on this "
                "path; this self-deadlocks (use an RLock or split the "
                "locked region)",
            )

    def _inversion(
        self,
        path: str,
        line: int,
        col: int,
        via: str | None,
        held: str,
        acquired: str,
        opposite: tuple[str, int, int, str | None],
    ) -> Finding:
        how = (
            f"call to `{via}` acquires `{acquired}`"
            if via
            else f"acquires `{acquired}`"
        )
        o_path, o_line, _o_col, _o_via = opposite
        return Finding(
            self.code, path, line, col,
            f"{how} while holding `{held}`, but the opposite order is "
            f"taken at {o_path}:{o_line}; inconsistent lock order can "
            "deadlock",
        )
