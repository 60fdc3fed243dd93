"""Project-wide symbol table and call graph over concurrency facts.

The per-file extractor in :mod:`repro.analysis.locks` reduces each parsed
``SourceModule`` to a JSON-serializable fact bundle: the module's import
aliases, its functions and methods, the locks it defines, and -- per
function -- the ordered lock acquisitions, outgoing calls and blocking
operations.  This module stitches those
per-file bundles into a whole-program view:

* a symbol table mapping dotted names to function ids (``repo.*`` imports,
  ``from`` re-exports and ``lazy_exports`` tables in package ``__init__``
  modules, methods via ``self.``, and constructors via ``ClassName(...)``),
* a call graph whose edges are the resolved call descriptors, and
* memoised transitive closures over that graph (locks acquired and
  blocking operations reached).

Resolution is deliberately static and conservative: a call through a
variable of unknown type simply produces no edge.  Under-approximating
the graph can miss a hazard but never invents one, which is the right
trade-off for lint rules that gate CI.

Function ids are ``"<module>::<qualname>"`` strings (``qualname`` is
``name`` or ``Class.name``); lock ids are dotted ``"<module>.<name>"``
for module-level locks and ``"<module>.<Class>.<attr>"`` for instance
locks created in a method body.
"""

from __future__ import annotations

from pathlib import PurePath

__all__ = ["ProjectIndex", "module_name_for", "fn_id", "split_fn_id"]

#: Re-export chains (``from .store import ResultStore`` inside a
#: package ``__init__``) are chased at most this deep.
_MAX_REEXPORT_DEPTH = 8


def module_name_for(display_path: str) -> str:
    """Dotted module name for a display path.

    ``src/repro/core/sweep.py`` -> ``repro.core.sweep``; a package
    ``__init__.py`` maps to the package itself.  Paths outside a ``src``
    layout (fixtures, scratch dirs) degrade to their relative dotted form.
    """
    parts = list(PurePath(display_path).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = leaf
    return ".".join(p for p in parts if p)


def fn_id(module: str, qualname: str) -> str:
    return f"{module}::{qualname}"


def split_fn_id(fnid: str) -> tuple[str, str]:
    module, _, qualname = fnid.partition("::")
    return module, qualname


class ProjectIndex:
    """Symbol table + call graph over ``{display_path: facts}`` bundles."""

    def __init__(self, facts_by_path: dict[str, dict]) -> None:
        self._modules: dict[str, dict] = {}
        self._paths: dict[str, str] = {}
        #: fully-qualified lock id -> kind ("Lock" | "RLock")
        self.locks: dict[str, str] = {}
        for path, facts in sorted(facts_by_path.items()):
            if not facts:
                continue
            mod = facts.get("module") or module_name_for(path)
            self._modules[mod] = facts
            self._paths[mod] = path
            for name, kind in facts.get("locks", {}).items():
                self.locks[f"{mod}.{name}"] = kind
            for cls, info in facts.get("classes", {}).items():
                for attr, kind in info.get("locks", {}).items():
                    self.locks[f"{mod}.{cls}.{attr}"] = kind
        self._resolve_memo: dict[tuple[str, str], str | None] = {}
        self._closure_memo: dict[str, dict[str, frozenset]] = {}

    # -- basic lookups --------------------------------------------------

    def path_for(self, module: str) -> str | None:
        return self._paths.get(module)

    def functions(self):
        """Yield ``(fnid, path, fndata)`` for every known function."""
        for mod, facts in self._modules.items():
            path = self._paths[mod]
            for qual, fn in facts.get("functions", {}).items():
                yield fn_id(mod, qual), path, fn

    def function(self, fnid: str) -> dict | None:
        mod, qual = split_fn_id(fnid)
        facts = self._modules.get(mod)
        if facts is None:
            return None
        return facts.get("functions", {}).get(qual)

    def is_lock(self, lock_id: str) -> bool:
        return lock_id in self.locks

    def lock_kind(self, lock_id: str) -> str | None:
        return self.locks.get(lock_id)

    def confirmed(self, candidates) -> list[str]:
        """Filter candidate lock ids down to locks the project defines."""
        return [c for c in candidates if c in self.locks]

    # -- name resolution ------------------------------------------------

    def resolve_dotted(self, dotted: str, _depth: int = 0) -> str | None:
        """Resolve a fully-dotted reference to a function id.

        Handles ``repro.core.plan.plan_groups`` (module function),
        ``repro.core.sweep.SweepEngine`` (constructor), and package
        re-exports (``repro.store.ResultStore`` chasing the alias in
        ``repro/store/__init__.py`` to ``repro.store.store``;
        ``repro.harness.build_table`` chasing the ``lazy_exports`` table
        in ``repro/harness/__init__.py`` to ``repro.harness.tables``).
        """
        if _depth > _MAX_REEXPORT_DEPTH:
            return None
        # Longest module prefix wins: "repro.core.sweep.SweepEngine.run"
        # splits at "repro.core.sweep".
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            facts = self._modules.get(mod)
            if facts is None:
                continue
            rest = parts[cut:]
            return self._resolve_in_module(mod, facts, rest, _depth)
        return None

    def _resolve_in_module(
        self, mod: str, facts: dict, rest: list[str], depth: int
    ) -> str | None:
        functions = facts.get("functions", {})
        classes = facts.get("classes", {})
        if len(rest) == 1:
            name = rest[0]
            if name in functions:
                return fn_id(mod, name)
            if name in classes:
                init = f"{name}.__init__"
                return fn_id(mod, init) if init in functions else None
            alias = facts.get("aliases", {}).get(name)
            if alias:
                return self.resolve_dotted(alias, depth + 1)
            return None
        if len(rest) == 2:
            qual = ".".join(rest)
            if qual in functions:
                return fn_id(mod, qual)
        alias = facts.get("aliases", {}).get(rest[0])
        if alias:
            return self.resolve_dotted(alias + "." + ".".join(rest[1:]), depth + 1)
        return None

    def resolve_call(self, caller_fnid: str, chain: str) -> str | None:
        """Resolve a raw call chain as seen from inside ``caller_fnid``."""
        mod, qual = split_fn_id(caller_fnid)
        memo_key = (caller_fnid, chain)
        if memo_key in self._resolve_memo:
            return self._resolve_memo[memo_key]
        target = self._resolve_call_uncached(mod, qual, chain)
        self._resolve_memo[memo_key] = target
        return target

    def _resolve_call_uncached(
        self, mod: str, qual: str, chain: str
    ) -> str | None:
        facts = self._modules.get(mod)
        if facts is None:
            return None
        parts = chain.split(".")
        head = parts[0]
        if head == "self":
            cls = qual.split(".")[0] if "." in qual else None
            if cls and len(parts) == 2:
                method = f"{cls}.{parts[1]}"
                if method in facts.get("functions", {}):
                    return fn_id(mod, method)
            return None
        if len(parts) == 1:
            return self._resolve_in_module(mod, facts, parts, 0)
        alias = facts.get("aliases", {}).get(head)
        if alias is not None:
            return self.resolve_dotted(alias + "." + ".".join(parts[1:]))
        # "ClassName.method" on a class defined in this module.
        if head in facts.get("classes", {}) and len(parts) == 2:
            method = ".".join(parts)
            if method in facts.get("functions", {}):
                return fn_id(mod, method)
        return None

    # -- transitive closures -------------------------------------------

    def _direct(self, fnid: str, key: str) -> frozenset:
        fn = self.function(fnid)
        if fn is None:
            return frozenset()
        if key == "acquires":
            return frozenset(
                ref for ref, _l, _c, _held in fn.get("acquires", ())
                if ref in self.locks
            )
        if key == "blocking":
            return frozenset(
                (op, bool(io)) for op, io, _l, _c, _held in fn.get("blocking", ())
            )
        raise KeyError(key)

    def _closures(self, key: str) -> dict[str, frozenset]:
        """Fixpoint of ``closure[f] = direct[f] | U closure[callee]``."""
        if key in self._closure_memo:
            return self._closure_memo[key]
        edges: dict[str, list[str]] = {}
        closure: dict[str, set] = {}
        for fnid, _path, fn in self.functions():
            closure[fnid] = set(self._direct(fnid, key))
            targets = []
            for chain, _line, _col, _held in fn.get("calls", ()):
                target = self.resolve_call(fnid, chain)
                if target is not None:
                    targets.append(target)
            edges[fnid] = targets
        changed = True
        while changed:
            changed = False
            for fnid, targets in edges.items():
                acc = closure[fnid]
                before = len(acc)
                for target in targets:
                    acc |= closure.get(target, ())
                if len(acc) != before:
                    changed = True
        frozen = {fnid: frozenset(vals) for fnid, vals in closure.items()}
        self._closure_memo[key] = frozen
        return frozen

    def acquire_closure(self, fnid: str) -> frozenset:
        """Every project lock ``fnid`` may acquire, transitively."""
        return self._closures("acquires").get(fnid, frozenset())

    def blocking_closure(self, fnid: str) -> frozenset:
        """``(op, is_io)`` blocking operations reachable from ``fnid``."""
        return self._closures("blocking").get(fnid, frozenset())
