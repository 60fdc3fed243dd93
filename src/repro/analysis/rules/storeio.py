"""R012: store I/O discipline -- store paths are touched only by ``repro.store``.

The result store's guarantees (sha256-verified entries, atomic
publication, LRU index consistency) all flow from one invariant: every
byte under a store root is written and renamed by
:class:`repro.store.ResultStore` itself.  A stray ``open()`` or
``os.replace()`` aimed at an ``objects/`` entry or the index sidesteps
the checksum and the index bookkeeping -- producing entries the store
will classify as corrupt (silent cache misses) or an index that no
longer matches the objects.

The rule flags direct file I/O -- ``open``, ``os.open``, ``os.replace``,
``os.rename`` and ``Path.write_text`` / ``write_bytes`` -- whose target
expression mentions a store path: an identifier containing ``store``,
or a literal containing ``objects/``.  Modules inside ``repro/store``
(the sanctioned implementation) and ``repro/faults`` (the atomic-write
primitive the store builds on) are exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePath

from ..core import Finding, Rule, SourceModule
from ..registry import register

__all__ = ["StoreIORule"]

#: os-level sinks that move or create files (resolved via imports).
_OS_SINKS = {"os.open", "os.replace", "os.rename"}

#: Path methods that write file contents directly.
_PATH_WRITE_METHODS = {"write_text", "write_bytes"}

#: Identifier fragments marking a store-owned path expression.
_PATH_MARKERS = ("store",)

#: String-literal fragments marking a store-owned path expression.
_LITERAL_MARKERS = ("objects/",)


def _inside_exempt_package(module: SourceModule) -> bool:
    parts = PurePath(module.display_path).parts
    for repro_idx in (i for i, part in enumerate(parts) if part == "repro"):
        if repro_idx + 1 < len(parts) and parts[repro_idx + 1] in (
            "store",
            "faults",
        ):
            return True
    return False


def _mentions_store_path(nodes: list[ast.AST]) -> bool:
    """Whether any expression in ``nodes`` names a store path."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                ident = node.id.lower()
            elif isinstance(node, ast.Attribute):
                ident = node.attr.lower()
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value.lower()
                if any(marker in text for marker in _LITERAL_MARKERS):
                    return True
                continue
            else:
                continue
            if any(marker in ident for marker in _PATH_MARKERS):
                return True
    return False


@register
class StoreIORule(Rule):
    code = "R012"
    name = "storeio"
    description = (
        "direct file I/O on result-store paths outside repro.store bypasses "
        "checksums and the LRU index; go through ResultStore instead"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        if _inside_exempt_package(module):
            return
        imports = module.imports
        for node in module.nodes_of(ast.Call):
            targets: list[ast.AST] = []
            sink = None
            resolved = imports.resolve(node.func)
            if resolved in _OS_SINKS:
                sink = resolved
                targets = list(node.args) + [kw.value for kw in node.keywords]
            elif isinstance(node.func, ast.Name) and node.func.id == "open":
                sink = "open"
                targets = list(node.args) + [kw.value for kw in node.keywords]
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _PATH_WRITE_METHODS
                and imports.resolve(node.func) is None
            ):
                # A method write: the store path is the receiver.
                sink = node.func.attr
                targets = [node.func.value]
            if sink is None or not _mentions_store_path(targets):
                continue
            yield module.finding(
                self.code, node,
                f"`{sink}` on a store path bypasses the store's "
                "checksum and index bookkeeping; use "
                "`repro.store.ResultStore` (get/put) instead",
            )
