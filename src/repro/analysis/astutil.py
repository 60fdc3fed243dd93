"""Small AST helpers shared by the rules and the analysis substrate."""

from __future__ import annotations

import ast

__all__ = [
    "ImportTable",
    "dotted_name",
    "lazy_export_aliases",
    "terminal_name",
    "walk_nodes",
]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def walk_nodes(tree: ast.AST) -> tuple[list[ast.AST], dict[int, ast.AST | None]]:
    """Every node of ``tree`` in :func:`ast.walk` order, plus
    ``id(node) -> `` its innermost enclosing ``def`` (``None`` outside any
    function).

    A function's own children (decorators, defaults, body) count as
    enclosed by it.  One pass that, owners included, is still ~1.2x
    faster than ``list(ast.walk(tree))``.
    """
    nodes: list[ast.AST] = [tree]
    owners: list[ast.AST | None] = [None]
    add_node, add_owner = nodes.append, owners.append
    AST = ast.AST
    i = 0
    while i < len(nodes):
        node = nodes[i]
        owner = node if isinstance(node, _FUNCTIONS) else owners[i]
        i += 1
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, AST):
                add_node(value)
                add_owner(owner)
            elif type(value) is list:
                for item in value:
                    if isinstance(item, AST):
                        add_node(item)
                        add_owner(owner)
    return nodes, dict(zip(map(id, nodes), owners))


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The last identifier of a Name/Attribute chain (``c`` for ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _absolute(package: str, level: int, name: str) -> str | None:
    """Absolute dotted form of ``name`` written with ``level`` leading
    dots inside ``package``: one dot is ``package`` itself and each
    further dot climbs one package up (``from .plan import x``,
    ``from .. import y``); ``name`` as given at level 0, ``None`` when
    the climb passes the top."""
    if not level:
        return name
    anchor = package.split(".")
    climb = level - 1
    anchor = anchor[: len(anchor) - climb] if climb else anchor
    if not anchor:
        return None
    return ".".join(anchor) + ("." + name if name else "")


def lazy_export_aliases(tree: ast.Module, module: str) -> dict[str, str]:
    """``name -> dotted target`` for every name a package exports through
    a module-level ``lazy_exports(globals(), {...})`` call
    (:mod:`repro._lazy`).

    The dict literal maps a relative submodule (``".tables"``) to the
    names it provides, resolved against ``module`` itself as
    ``importlib.import_module`` does: inside ``repro.harness``,
    ``".tables": ("build_table",)`` maps ``build_table`` to
    ``repro.harness.tables.build_table``.  Entries that are not string
    literals are skipped.
    """
    aliases: dict[str, str] = {}
    for stmt in tree.body:
        call = getattr(stmt, "value", None)
        if not (
            isinstance(call, ast.Call)
            and terminal_name(call.func) == "lazy_exports"
            and len(call.args) == 2
            and isinstance(call.args[1], ast.Dict)
        ):
            continue
        table = call.args[1]
        for key, names in zip(table.keys, table.values):
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(names, (ast.Tuple, ast.List))
            ):
                continue
            relative = key.value.lstrip(".")
            base = _absolute(module, len(key.value) - len(relative), relative)
            if base is None:
                continue
            for name in names.elts:
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    aliases[name.value] = f"{base}.{name.value}"
    return aliases


class ImportTable:
    """Maps local names to the dotted module/object paths they import.

    ``import numpy as np``          -> ``np: numpy``
    ``import numpy.random``         -> ``numpy: numpy`` (chain resolution
    walks attributes, so ``numpy.random.rand`` still resolves)
    ``from numpy import random``    -> ``random: numpy.random``
    ``from time import perf_counter as pc`` -> ``pc: time.perf_counter``

    Relative imports resolve against ``module``, the importing module's
    dotted name: ``from .plan import plan_groups`` inside
    ``repro.core.sweep`` maps ``plan_groups`` to
    ``repro.core.plan.plan_groups``.  A package ``__init__``
    (``is_package``) is its own anchor, so ``from .atomic import x`` in
    ``repro/faults/__init__.py`` maps to ``repro.faults.atomic.x``.
    """

    def __init__(
        self, nodes: list[ast.AST], module: str = "", is_package: bool = False
    ) -> None:
        self.aliases: dict[str, str] = {}
        if is_package or "." not in module:
            package = module
        else:
            package = module.rsplit(".", 1)[0]
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = _absolute(package, node.level, node.module or "")
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.aliases[alias.asname or alias.name] = target

    def resolve_chain(self, chain: str) -> str | None:
        """``chain`` with its leading segment replaced by its import
        target; ``None`` when the head is not an imported name."""
        head, _, rest = chain.partition(".")
        base = self.aliases.get(head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base

    def resolve(self, node: ast.AST) -> str | None:
        """Fully-qualified dotted path of a Name/Attribute chain, resolving
        the leading segment through the import table.  ``None`` when the
        chain does not start at an imported name."""
        dotted = dotted_name(node)
        return None if dotted is None else self.resolve_chain(dotted)
