"""R005: model parity -- the trace-engine pair and complete kernel registration.

The cache simulator's two trace engines, the dict-based oracle and the
reuse-distance fast path, are only interchangeable because a
``TRACE_ENGINES`` registry holds both under fixed names.  Any module assigning ``TRACE_ENGINES`` must register both
``"exact"`` and ``"vectorized"`` and point each at a module-level
function, and a ``run_trace_vectorized`` definition without any such
registry in the project is flagged -- an unregistered engine could drift
from the oracle silently.

The project-level part checks kernel registration completeness: every
NPB kernel module (a ``run_<k>`` definition in a ``npb/`` directory) must
have a workload signature in ``SIGNATURE_BUILDERS`` and a trace spec in
``KERNEL_TRACES``, and vice versa -- a kernel missing from either would
silently drop out of tables without an error.  Signature builders must
pass the core resource axes (``total_mops``, ``work_per_op``,
``dram_bytes_per_op``, ``working_set_bytes``) so no kernel ships a
partial signature.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..core import Finding, ProjectRule, SourceModule
from ..registry import register

__all__ = ["ParityRule"]

#: Keywords every KernelSignature registration must supply.
REQUIRED_SIGNATURE_FIELDS = (
    "name", "display", "npb_class", "total_mops", "work_per_op",
    "dram_bytes_per_op", "working_set_bytes",
)

#: ``run_<name>`` definitions in npb/ that are drivers, not kernels.
_NON_KERNEL_RUNNERS = {"benchmark", "suite"}

#: The cachesim engine registry and the pair of engines it must hold.
ENGINE_REGISTRY = "TRACE_ENGINES"
REQUIRED_ENGINES = ("exact", "vectorized")

#: The vectorized engine's entry point; defining it obliges registration.
_VECTORIZED_ENTRY = "run_trace_vectorized"


@register
class ParityRule(ProjectRule):
    code = "R005"
    name = "model-parity"
    description = (
        "an incomplete TRACE_ENGINES pair, or NPB kernels without a "
        "complete signature/trace registration"
    )

    # -- per-file: the trace-engine registry ---------------------------

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        yield from self._check_engine_registry(module)

    def _check_engine_registry(self, module: SourceModule) -> Iterator[Finding]:
        """A ``TRACE_ENGINES`` registry must hold the full engine pair."""
        found = _dict_assignment(module, ENGINE_REGISTRY)
        if found is None:
            return
        stmt, engines = found
        for required in REQUIRED_ENGINES:
            if required not in engines:
                yield module.finding(
                    self.code, stmt,
                    f"{ENGINE_REGISTRY} omits the {required!r} engine; the "
                    "exact/vectorized pair must stay registered together "
                    "so the implementations cannot drift silently",
                )
        functions = {
            s.name for s in module.tree.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for engine, value in engines.items():
            if not isinstance(value, ast.Name) or value.id not in functions:
                yield module.finding(
                    self.code, value,
                    f"{ENGINE_REGISTRY}[{engine!r}] must name a "
                    "module-level engine function",
                )

    # -- project: kernel registration completeness ---------------------
    #
    # The cross-file part runs through the incremental facts API: each
    # file is reduced once (and cached) to the registration facts below;
    # project_findings recombines them without re-parsing anything.

    facts_key = "parity"

    @classmethod
    def extract_facts(cls, module: SourceModule) -> dict | None:
        facts: dict = {}
        if _dict_literal(module, ENGINE_REGISTRY) is not None:
            facts["registry_seen"] = True
        vectorized = [
            [stmt.lineno, stmt.col_offset]
            for stmt in module.tree.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == _VECTORIZED_ENTRY
        ]
        if vectorized:
            facts["vectorized_defs"] = vectorized
        if module.path.parent.name == "npb":
            stem = module.path.stem.rstrip("_")
            kernels = [
                stmt.name[len("run_"):]
                for stmt in module.tree.body
                if isinstance(stmt, ast.FunctionDef)
                and stmt.name.startswith("run_")
                and stmt.name[len("run_"):] == stem
                and stmt.name[len("run_"):] not in _NON_KERNEL_RUNNERS
            ]
            if kernels:
                facts["kernels"] = kernels
        builders = _dict_literal(module, "SIGNATURE_BUILDERS")
        if builders is not None:
            facts["builders"] = sorted(builders)
            facts["builder_findings"] = [
                [f.line, f.col, f.message]
                for f in cls._builder_findings(module, builders)
            ]
        trace_keys = _dict_literal(module, "KERNEL_TRACES")
        if trace_keys is not None:
            facts["traces"] = sorted(trace_keys)
        return facts or None

    def project_findings(self, facts_by_path: dict[str, object]) -> Iterator[Finding]:
        kernels: dict[str, str] = {}
        signatures: tuple[str, list[str], list] | None = None
        traces: tuple[str, set[str]] | None = None
        registry_seen = False
        vectorized_defs: list[tuple[str, int, int]] = []

        for path, facts in facts_by_path.items():
            if facts.get("registry_seen"):
                registry_seen = True
            for line, col in facts.get("vectorized_defs", ()):
                vectorized_defs.append((path, line, col))
            for kernel in facts.get("kernels", ()):
                kernels[kernel] = path
            if "builders" in facts:
                signatures = (
                    path, facts["builders"], facts.get("builder_findings", [])
                )
            if "traces" in facts:
                traces = (path, set(facts["traces"]))

        if signatures is not None:
            sig_path, builders, builder_findings = signatures
            if kernels:
                for kernel, path in sorted(kernels.items()):
                    if kernel not in builders:
                        yield Finding(
                            self.code, path, 1, 0,
                            f"NPB kernel `{kernel}` has no entry in "
                            "SIGNATURE_BUILDERS; the model cannot predict it",
                        )
                for kernel in sorted(set(builders) - set(kernels)):
                    yield Finding(
                        self.code, sig_path, 1, 0,
                        f"SIGNATURE_BUILDERS registers `{kernel}` but no "
                        f"npb/{kernel}.py module defines `run_{kernel}`",
                    )
            for line, col, message in builder_findings:
                yield Finding(self.code, sig_path, line, col, message)

        if not registry_seen:
            for path, line, col in vectorized_defs:
                yield Finding(
                    self.code, path, line, col,
                    f"`{_VECTORIZED_ENTRY}` is defined but no "
                    f"{ENGINE_REGISTRY} registry pairs it with the exact "
                    "oracle; unregistered engines can drift silently",
                )

        if traces is not None and kernels:
            trace_path, trace_keys = traces
            for kernel, path in sorted(kernels.items()):
                if kernel not in trace_keys:
                    yield Finding(
                        self.code, path, 1, 0,
                        f"NPB kernel `{kernel}` has no KERNEL_TRACES entry; "
                        "the cache simulator cannot characterise it",
                    )
            for kernel in sorted(trace_keys - set(kernels)):
                yield Finding(
                    self.code, trace_path, 1, 0,
                    f"KERNEL_TRACES lists `{kernel}` but no npb/{kernel}.py "
                    f"module defines `run_{kernel}`",
                )

    @classmethod
    def _builder_findings(
        cls, module: SourceModule, builders: dict[str, ast.expr]
    ) -> Iterator[Finding]:
        functions = {
            stmt.name: stmt
            for stmt in module.tree.body
            if isinstance(stmt, ast.FunctionDef)
        }
        for kernel, value in builders.items():
            if not isinstance(value, ast.Name):
                continue
            builder = functions.get(value.id)
            if builder is None:
                continue
            call = _kernel_signature_call(builder)
            if call is None:
                yield module.finding(
                    cls.code, builder,
                    f"signature builder `{value.id}` for `{kernel}` never "
                    "constructs a KernelSignature",
                )
                continue
            supplied = {kw.arg for kw in call.keywords if kw.arg}
            missing = [f for f in REQUIRED_SIGNATURE_FIELDS if f not in supplied]
            if missing:
                yield module.finding(
                    cls.code, call,
                    f"signature for `{kernel}` is incomplete: missing "
                    f"{', '.join(missing)}",
                )


def _dict_assignment(
    module: SourceModule, name: str
) -> tuple[ast.stmt, dict[str, ast.expr]] | None:
    """(assignment, entries) for a module-level string-keyed dict literal."""
    for stmt in module.tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name \
                    and isinstance(value, ast.Dict):
                out: dict[str, ast.expr] = {}
                for key, val in zip(value.keys, value.values):
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        out[key.value] = val
                return stmt, out
    return None


def _dict_literal(module: SourceModule, name: str) -> dict[str, ast.expr] | None:
    """String-keyed dict literal assigned to ``name`` at module level."""
    found = _dict_assignment(module, name)
    return None if found is None else found[1]


def _kernel_signature_call(func: ast.FunctionDef) -> ast.Call | None:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else None
            )
            if name == "KernelSignature":
                return node
    return None
