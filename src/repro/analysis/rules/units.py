"""R003: units -- suffix-convention dataflow over model and catalog code.

Every quantity in the performance model carries its unit in its name
(``capacity_bytes``, ``clock_ghz``, ``sustained_bw_gbs``, ``idle_latency_ns``,
``barrier_cost_s``, ``latency_cycles``, ``total_mops``).  The paper's
conclusions hang on exactly the machine parameters of Table 5, so a silent
ns-vs-s or GB/s-vs-GHz mix-up invalidates every table while remaining
numerically plausible.  This rule runs a conservative unit inference:

* a Name/Attribute carries the unit of its recognised suffix;
* ``+``/``-`` and comparisons require both known units to agree;
* ``*``/``/`` produce an *unknown* unit (dimension changes are legal and
  conversions like ``* 1e-9`` are the idiom for switching suffixes);
* binding a unit-carrying name straight to a differently-suffixed (or
  unsuffixed) target is flagged -- aliasing a quantity out of its unit is
  how mix-ups start.

Unknown units never flag: the rule only fires when *both* sides commit to
incompatible suffixes, so it is quiet on generic code.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..astutil import terminal_name
from ..core import Finding, Rule, SourceModule
from ..registry import register

__all__ = ["UnitsRule", "unit_of_name"]

#: suffix token (after the last ``_``) -> canonical unit.
UNIT_SUFFIXES = {
    "bytes": "bytes",
    "bits": "bits",
    "kib": "KiB",
    "mib": "MiB",
    "gib": "GiB",
    "hz": "Hz",
    "ghz": "GHz",
    "mhz": "MHz",
    "gbs": "GB/s",
    "gbps": "GB/s",
    "mts": "MT/s",
    "ns": "ns",
    "us": "us",
    "ms": "ms",
    "s": "s",
    "cycles": "cycles",
    "ops": "ops",
    "mops": "Mop/s",
    "gflops": "Gflop/s",
}

#: Single-token names that still carry a unit when used bare.  Deliberately
#: excludes ambiguous short tokens: bare ``ns`` is this codebase's idiom for
#: a thread-count *array*, bare ``s``/``ms`` are loop variables, and bare
#: ``bytes`` is the builtin.
_BARE_UNIT_NAMES = {"ghz", "mhz", "gbs", "gbps", "mops", "gflops", "cycles"}


def unit_of_name(name: str | None) -> str | None:
    """Unit carried by an identifier, or ``None``."""
    if not name:
        return None
    lowered = name.lower()
    if "_" in lowered:
        token = lowered.rsplit("_", 1)[1]
        return UNIT_SUFFIXES.get(token)
    return UNIT_SUFFIXES.get(lowered) if lowered in _BARE_UNIT_NAMES else None


def _unit_of_expr(node: ast.AST) -> str | None:
    """Conservative unit inference; ``None`` = unknown (never flags)."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return unit_of_name(terminal_name(node))
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = _unit_of_expr(node.left)
        right = _unit_of_expr(node.right)
        if left is not None and right is not None and left == right:
            return left
        # Mixed or part-unknown sums stay unknown; the visitor reports the
        # incompatible case separately.
        return left if right is None else right if left is None else None
    if isinstance(node, ast.UnaryOp):
        return _unit_of_expr(node.operand)
    if isinstance(node, ast.IfExp):
        body = _unit_of_expr(node.body)
        orelse = _unit_of_expr(node.orelse)
        return body if body == orelse else None
    return None


#: The node types the rule inspects.
_CHECKED = (ast.BinOp, ast.Compare, ast.Assign, ast.AnnAssign, ast.Call, ast.Return)


@register
class UnitsRule(Rule):
    code = "R003"
    name = "units"
    description = (
        "arithmetic or bindings mixing incompatible unit suffixes "
        "(_bytes/_ghz/_gbs/_ns/_ops ...)"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.nodes_of(*_CHECKED):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                yield from self._check_additive(module, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(module, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_assign(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_keywords(module, node)
            elif isinstance(node, ast.Return) and node.value is not None:
                owner = module.owner(node)
                if owner is not None:
                    yield from self._check_return(module, node,
                                                  unit_of_name(owner.name))

    # ------------------------------------------------------------------

    def _check_additive(self, module, node: ast.BinOp) -> Iterator[Finding]:
        left = _unit_of_expr(node.left)
        right = _unit_of_expr(node.right)
        if left is not None and right is not None and left != right:
            op = "+" if isinstance(node.op, ast.Add) else "-"
            yield module.finding(
                self.code, node,
                f"`{op}` mixes {left} and {right}; convert explicitly "
                "before combining",
            )

    def _check_compare(self, module, node: ast.Compare) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        units = [_unit_of_expr(o) for o in operands]
        known = [u for u in units if u is not None]
        if len(known) >= 2 and len(set(known)) > 1:
            yield module.finding(
                self.code, node,
                f"comparison mixes {' and '.join(sorted(set(known)))}; "
                "convert to a common unit first",
            )

    def _check_assign(self, module, node) -> Iterator[Finding]:
        value = node.value
        if value is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value_unit = _unit_of_expr(value)
        direct_alias = isinstance(value, (ast.Name, ast.Attribute))
        for target in targets:
            if not isinstance(target, (ast.Name, ast.Attribute)):
                continue
            target_unit = unit_of_name(terminal_name(target))
            if target_unit is not None and value_unit is not None \
                    and target_unit != value_unit:
                yield module.finding(
                    self.code, node,
                    f"binds a {value_unit} expression to "
                    f"`{terminal_name(target)}` ({target_unit})",
                )
            elif target_unit is None and value_unit is not None and direct_alias:
                yield module.finding(
                    self.code, node,
                    f"binds unit-carrying `{terminal_name(value)}` "
                    f"({value_unit}) to unsuffixed `{terminal_name(target)}`; "
                    "keep the unit in the name",
                )

    def _check_keywords(self, module, node: ast.Call) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg is None:
                continue
            param_unit = unit_of_name(kw.arg)
            value_unit = _unit_of_expr(kw.value)
            if param_unit is not None and value_unit is not None \
                    and param_unit != value_unit:
                yield module.finding(
                    self.code, kw.value,
                    f"passes a {value_unit} expression to parameter "
                    f"`{kw.arg}` ({param_unit})",
                )

    def _check_return(self, module, node: ast.Return, func_unit) -> Iterator[Finding]:
        if func_unit is None:
            return
        value_unit = _unit_of_expr(node.value)
        if value_unit is not None and value_unit != func_unit:
            yield module.finding(
                self.code, node,
                f"returns a {value_unit} expression from a function whose "
                f"name promises {func_unit}",
            )

