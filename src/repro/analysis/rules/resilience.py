"""R007: exception hygiene -- broad handlers must re-raise or classify.

The sweep engine's resilience contract (DNR verdicts cached, everything
else propagated exactly once) lives or dies on how exceptions are
handled.  The archetypal regression: a broad ``except`` meant for one
expected failure that also swallows failures raised *inside* a group
and silently re-executes completed work -- double-counting telemetry
and corrupting the counter-identity invariant.

This rule flags ``except`` handlers that catch ``Exception`` /
``BaseException`` (or use a bare ``except:``) and then neither

* ``raise`` (re-raise or raise a typed error), nor
* classify the failure through the :mod:`repro.faults` taxonomy
  (``classify``/``TransientError``/``FaultError``/...).

Scope: the packages whose handlers guard sweep results --
``repro.core``, ``repro.harness`` and ``repro.faults`` -- plus any file
outside the ``repro`` package (scripts, benchmarks).  Narrow handlers
(``except ValueError:``) are always fine: naming the exception is the
classification.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePath

from ..astutil import ImportTable, terminal_name
from ..core import Finding, Rule, SourceModule
from ..registry import register

__all__ = ["ResilienceRule"]

#: Catching one of these (or a bare ``except:``) is "broad".
_BROAD = {"Exception", "BaseException"}

#: Subpackages of ``repro`` whose exception handling guards sweep results.
_SCOPED_SUBPACKAGES = {"core", "harness", "faults"}

#: Names whose use inside a handler counts as classifying the failure.
_TAXONOMY_NAMES = {"classify", "FaultError", "TransientError"}


def _in_scope(module: SourceModule) -> bool:
    parts = PurePath(module.display_path).parts
    repro_indices = [i for i, part in enumerate(parts) if part == "repro"]
    if not repro_indices:
        return True  # scripts, benchmarks, fixtures: check them
    return any(
        i + 1 < len(parts) and parts[i + 1] in _SCOPED_SUBPACKAGES
        for i in repro_indices
    )


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except:
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    return any(terminal_name(t) in _BROAD for t in types)


def _handles_failure(handler: ast.ExceptHandler, imports: ImportTable) -> bool:
    """Whether the handler re-raises or routes through the faults taxonomy."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, (ast.Name, ast.Attribute)):
            resolved = imports.resolve(node)
            if resolved is not None and resolved.startswith("repro.faults"):
                return True
            if terminal_name(node) in _TAXONOMY_NAMES:
                return True
    return False


@register
class ResilienceRule(Rule):
    code = "R007"
    name = "resilience"
    description = (
        "broad exception handlers in sweep-critical code must re-raise or "
        "classify via the repro.faults taxonomy, never swallow silently"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        if not _in_scope(module):
            return
        imports = module.imports
        for node in module.nodes_of(ast.ExceptHandler):
            if not _is_broad(node):
                continue
            if _handles_failure(node, imports):
                continue
            caught = "bare except" if node.type is None else "broad except"
            yield module.finding(
                self.code, node,
                f"{caught} swallows failures silently; re-raise, raise a "
                "typed error, or classify via repro.faults so transient "
                "failures retry and real bugs propagate exactly once",
            )
