"""Small AST helpers shared by the rules and the analysis substrate."""

from __future__ import annotations

import ast

__all__ = ["ImportTable", "dotted_name", "terminal_name", "walk_nodes"]

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
                base = node.module or ""
                if node.level:
                    # `from . import x` / `from .plan import x`: climb
                    # level-1 packages up from the containing package.
                    anchor = package.split(".")
                    climb = node.level - 1
                    anchor = anchor[: len(anchor) - climb] if climb else anchor
                    if not anchor:
                        continue
                    base = ".".join(anchor) + ("." + base if base else "")
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
