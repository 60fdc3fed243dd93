"""Per-file lock model: the fact extractor behind R009/R010.

Each parsed ``SourceModule`` is reduced to one plain-data "concurrency
facts" bundle, which :class:`repro.analysis.callgraph.ProjectIndex`
stitches into the whole-program view.  The bundle records, per module:

* ``aliases`` -- the module's import table
  (:class:`repro.analysis.astutil.ImportTable`, relative imports
  resolved) plus, in a package ``__init__``, the names it exports
  lazily (:func:`repro.analysis.astutil.lazy_export_aliases`),
* ``locks`` / ``classes[*].locks`` -- module-level and instance
  ``threading.Lock``/``RLock`` definitions with their kind,
* ``functions`` -- per function/method: the ordered lock *acquisitions*
  (``with lock:`` and ``lock.acquire()``/``release()``) each with the
  set of locks already held, the outgoing *calls* with held sets, and
  the direct *blocking operations* (``.wait()``, ``.result()``,
  ``time.sleep``, ``subprocess.*``, ``open()`` and Path I/O) with held
  sets.

Lock references are resolved to dotted candidate ids at extraction time
(``repro.obs._recorder_lock``, ``repro.core.sweep.SweepEngine._lock``);
:class:`repro.analysis.callgraph.ProjectIndex` later confirms candidates
against the project-wide lock table, so a ``with`` over an unrelated
context manager never enters the model.

Held-set tracking walks statements in source order: a ``with lock:``
holds for the lexical extent of its body, an ``.acquire()`` holds until
the matching ``.release()`` statement or function end (``try/finally``
releases are seen before any statement that follows the ``try``).
Bodies of nested ``def``/``lambda`` are excluded from the enclosing
function's events -- they run later, not at the point of definition.
"""

from __future__ import annotations

import ast

from .astutil import ImportTable, dotted_name, lazy_export_aliases, terminal_name
from .core import ProjectRule, SourceModule

__all__ = ["ConcurrencyRule", "extract_concurrency_facts"]

_LOCK_FACTORIES = {"Lock", "RLock"}

#: Attribute calls that block the calling thread regardless of module.
_BLOCKING_ATTRS = {"wait": ".wait()", "result": ".result()"}

#: Attribute calls that perform file I/O (hot-module scoped in R010).
_IO_ATTRS = {"read_text", "write_text", "read_bytes", "write_bytes"}

_SUBPROCESS_CALLS = {"run", "call", "check_call", "check_output", "Popen"}


def _lock_kind(value: ast.AST) -> str | None:
    """``"Lock"``/``"RLock"`` when ``value`` is a lock-factory call."""
    if isinstance(value, ast.Call):
        name = terminal_name(value.func)
        if name in _LOCK_FACTORIES:
            return name
    return None


class _FunctionScanner:
    """Walks one function body, producing its event summary."""

    def __init__(
        self,
        module_name: str,
        imports: ImportTable,
        module_locks: dict[str, str],
        cls: str | None,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self.module_name = module_name
        self.imports = imports
        self.module_locks = module_locks
        self.cls = cls
        self.func = func
        self.acquires: list[list] = []
        self.calls: list[list] = []
        self.blocking: list[list] = []
        self.instance_locks: dict[str, str] = {}
        self._held: list[str] = []

    # -- reference resolution ------------------------------------------

    def _lock_ref(self, expr: ast.AST) -> str | None:
        """Dotted candidate lock id for an expression, or None."""
        chain = dotted_name(expr)
        if chain is None:
            return None
        parts = chain.split(".")
        if parts[0] == "self":
            if self.cls and len(parts) == 2:
                return f"{self.module_name}.{self.cls}.{parts[1]}"
            return None
        if len(parts) == 1 and parts[0] in self.module_locks:
            return f"{self.module_name}.{parts[0]}"
        # Imported lock (bare `from mod import _lock` or dotted chain);
        # the ProjectIndex confirms candidates against real definitions.
        return self.imports.resolve_chain(chain)

    # -- entry point ----------------------------------------------------

    def run(self) -> dict:
        self._walk_body(self.func.body)
        out: dict = {"line": self.func.lineno, "col": self.func.col_offset}
        for key in ("acquires", "calls", "blocking"):
            val = getattr(self, key)
            if val:
                out[key] = val
        return out

    # -- statement walk -------------------------------------------------

    def _walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions run later, not here
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in stmt.items:
                self._scan_expr_tree(item.context_expr)
                ref = self._lock_ref(item.context_expr)
                if ref is not None:
                    self.acquires.append(
                        [ref, stmt.lineno, stmt.col_offset, list(self._held)]
                    )
                    self._held.append(ref)
                    acquired.append(ref)
            self._walk_body(stmt.body)
            for ref in reversed(acquired):
                self._held.remove(ref)
            return

        # acquire()/release() statements toggle the held set.
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            ref = self._lock_ref(call.func.value)
            if ref is not None and call.func.attr == "acquire":
                self.acquires.append(
                    [ref, stmt.lineno, stmt.col_offset, list(self._held)]
                )
                self._held.append(ref)
                return
            if ref is not None and call.func.attr == "release":
                if ref in self._held:
                    self._held.remove(ref)
                return

        # Instance locks: `self._lock = threading.Lock()` in a method.
        kind = _lock_kind(stmt.value) if isinstance(stmt, ast.Assign) else None
        if kind and self.cls:
            for target in stmt.targets:
                chain = dotted_name(target)
                if chain is not None and chain.startswith("self."):
                    attr = chain.split(".", 1)[1]
                    if "." not in attr:
                        self.instance_locks[attr] = kind

        self._scan_exprs(stmt)
        for body in (
            getattr(stmt, "body", None),
            getattr(stmt, "orelse", None),
            getattr(stmt, "finalbody", None),
        ):
            if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                self._walk_body(body)
        for handler in getattr(stmt, "handlers", ()):
            self._walk_body(handler.body)
        for case in getattr(stmt, "cases", ()):
            self._walk_body(case.body)

    # -- expression scan ------------------------------------------------

    def _scan_exprs(self, node: ast.AST) -> None:
        """Record calls/blocking ops in this statement's expressions,
        skipping nested statements and deferred bodies."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.Lambda)):
                continue
            if isinstance(child, ast.expr):
                self._scan_expr_tree(child)
            else:
                self._scan_exprs(child)

    def _scan_expr_tree(self, expr: ast.expr) -> None:
        if isinstance(expr, ast.Lambda):
            return
        if isinstance(expr, ast.Call):
            self._record_call(expr)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr_tree(child)
            elif isinstance(child, ast.comprehension):
                self._scan_expr_tree(child.iter)
                for cond in child.ifs:
                    self._scan_expr_tree(cond)

    def _record_call(self, call: ast.Call) -> None:
        chain = dotted_name(call.func)
        held = list(self._held)
        site = [call.lineno, call.col_offset]
        if chain is not None:
            resolved = self.imports.resolve_chain(chain) or chain
            if resolved == "time.sleep":
                self.blocking.append(["time.sleep", 0, *site, held])
                return
            if (
                resolved.startswith("subprocess.")
                and resolved.split(".")[-1] in _SUBPROCESS_CALLS
            ):
                self.blocking.append([resolved, 0, *site, held])
                return
            if chain == "open":
                self.blocking.append(["open()", 1, *site, held])
                return
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in _BLOCKING_ATTRS and len(call.args) + len(call.keywords) <= 1:
                # Exclude `lock.acquire()`-shaped receivers handled above;
                # Event.wait()/Future.result() is what we are after.
                if self._lock_ref(call.func.value) is None:
                    self.blocking.append([_BLOCKING_ATTRS[attr], 0, *site, held])
                return
            if attr in _IO_ATTRS:
                self.blocking.append([f".{attr}()", 1, *site, held])
                return
        if chain is not None:
            self.calls.append([chain, *site, held])


def extract_concurrency_facts(module: SourceModule) -> dict | None:
    """Reduce one parsed module to its concurrency fact bundle."""
    if module.tree is None:
        return None
    mod_name = module.module_name
    imports = module.imports

    module_locks: dict[str, str] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            kind = _lock_kind(stmt.value)
            if kind:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        module_locks[target.id] = kind

    facts: dict = {
        "module": mod_name,
        "aliases": {**imports.aliases, **lazy_export_aliases(module.tree, mod_name)},
        "locks": module_locks,
        "functions": {},
        "classes": {},
    }

    def scan_function(
        func: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None
    ) -> None:
        scanner = _FunctionScanner(mod_name, imports, module_locks, cls, func)
        qual = f"{cls}.{func.name}" if cls else func.name
        facts["functions"][qual] = scanner.run()
        if cls and scanner.instance_locks:
            facts["classes"][cls]["locks"].update(scanner.instance_locks)

    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_function(stmt, None)
        elif isinstance(stmt, ast.ClassDef):
            facts["classes"][stmt.name] = {"methods": [], "locks": {}}
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    facts["classes"][stmt.name]["methods"].append(sub.name)
                    scan_function(sub, stmt.name)
    return facts


class ConcurrencyRule(ProjectRule):
    """Base for the whole-program concurrency rules (R009/R010).

    Binds the shared fact extractor under one ``facts_key`` so the
    driver extracts facts once per file for both rules.
    """

    facts_key = "concurrency"

    @classmethod
    def extract_facts(cls, module: SourceModule) -> dict | None:
        return extract_concurrency_facts(module)
