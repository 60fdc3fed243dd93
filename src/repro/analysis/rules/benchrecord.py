"""R013: every benchmark test records into the bench artifact.

The perf-trajectory gate (``repro bench --check``) can only gate what
the benchmarks record: a bench test that measures a paper table but
never calls ``bench_artifact(...)`` produces a number that evaporates
when the pytest session ends -- it has no baseline and no
regression margin, so a 10x slowdown in it ships silently.  Worse, the
subset-run merge keys on *which suites recorded*: an unrecorded test
makes its suite's artifact rows stale without marking them as such.

A module counts as a benchmark module when any of its test functions
requests a bench fixture (``benchmark``, ``time_best_of``,
``escalate_until`` or ``bench_artifact``).  In such a module, every
test function must

* take the ``bench_artifact`` fixture as a parameter, and
* actually call it (directly, ``bench_artifact("label", field=...)``,
  or by handing it to a recording helper).

Shape-only smoke tests that genuinely measure nothing can opt out per
line with ``# repro: noqa[R013]`` -- the pragma is the audit trail.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..core import Finding, Rule, SourceModule
from ..registry import register

__all__ = ["BenchRecordRule"]

#: Fixture parameters that mark a test (and thus its module) as a bench.
_BENCH_FIXTURES = {"benchmark", "time_best_of", "escalate_until", "bench_artifact"}

_RECORDER = "bench_artifact"


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    return {
        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }


def _test_functions(tree: ast.Module) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Module- and class-level test functions (not nested helpers)."""
    found = []
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            stack.extend(node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("test"):
                found.append(node)
    return sorted(found, key=lambda f: f.lineno)


def _calls_recorder(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``bench_artifact`` is invoked or handed to a helper call."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == _RECORDER:
            return True
        operands = list(node.args) + [kw.value for kw in node.keywords]
        if any(isinstance(a, ast.Name) and a.id == _RECORDER for a in operands):
            return True
    return False


@register
class BenchRecordRule(Rule):
    code = "R013"
    name = "benchrecord"
    description = (
        "benchmark tests must record their measurements through the "
        "bench_artifact fixture so the perf-trajectory gate can see them"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        tests = _test_functions(module.tree)
        if not any(_param_names(fn) & _BENCH_FIXTURES for fn in tests):
            return  # not a benchmark module
        for fn in tests:
            if _RECORDER not in _param_names(fn):
                yield module.finding(
                    self.code, fn,
                    f"bench test `{fn.name}` does not take the "
                    "`bench_artifact` fixture; its measurements never reach "
                    "the artifact or the regression gate",
                )
            elif not _calls_recorder(fn):
                yield module.finding(
                    self.code, fn,
                    f"bench test `{fn.name}` takes `bench_artifact` but "
                    "never records through it; call "
                    "`bench_artifact(label, **fields)` with the measured "
                    "numbers",
                )
