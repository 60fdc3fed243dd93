"""Every module under ``src/repro`` is reachable from an entry point.

The closure is static: it starts at the entry points, follows every
``import`` and ``from ... import`` statement of each reached module,
function-level ones included, and every target of a package's
``lazy_exports`` table (read as the lint call graph reads it).  Reaching
``a.b.c`` also reaches the packages ``a`` and ``a.b``.  Study code that
no command, export, service request or benchmark loads fails here
instead of lingering untested by any user-visible path.
"""

from __future__ import annotations

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.astutil import ImportTable, dotted_name, lazy_export_aliases
from repro.analysis.core import SourceModule, iter_python_files

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: ``python -m repro`` and the CLI behind it, plus the pytest plugin
#: ``benchmarks/conftest.py`` loads for the ``repro bench`` suites.
ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.bench.fixtures")


@functools.cache
def _modules() -> dict[str, SourceModule]:
    modules = {}
    for path in iter_python_files([SRC / "repro"]):
        module = SourceModule.from_path(path, str(path.relative_to(ROOT)))
        modules[module.module_name] = module
    return modules


def _targets(module: SourceModule) -> list[str]:
    """Every dotted name ``module`` imports, anywhere in its body."""
    is_package = module.path.name == "__init__.py"
    targets = []
    for node in module.nodes_of(ast.Import, ast.ImportFrom):
        if isinstance(node, ast.Import):
            targets += [alias.name for alias in node.names]
        else:
            table = ImportTable([node], module.module_name, is_package)
            targets += table.aliases.values()
    return targets + list(lazy_export_aliases(module.tree, module.module_name).values())


def _with_packages(dotted: str, known) -> list[str]:
    """``dotted`` and each package above it, as far as they are ``known``."""
    parts = dotted.split(".")
    prefixes = (".".join(parts[:cut]) for cut in range(1, len(parts) + 1))
    return [name for name in prefixes if name in known]


def reachable(modules: dict[str, SourceModule]) -> set[str]:
    seen: set[str] = set()
    frontier = [m for root in ENTRY_POINTS for m in _with_packages(root, modules)]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        for target in _targets(modules[name]):
            frontier += _with_packages(target, modules)
    return seen


@functools.cache
def _reached() -> frozenset[str]:
    return frozenset(reachable(_modules()))


def test_entry_points_are_modules():
    assert set(ENTRY_POINTS) <= set(_modules())


@pytest.mark.parametrize("name", sorted(_modules()))
def test_module_is_reachable_from_an_entry_point(name):
    assert name in _reached()


def test_lazy_exports_is_the_only_dynamic_import():
    """The closure sees static imports only; it is complete because
    ``repro._lazy`` is the one place that imports by computed name."""
    dynamic = {"importlib.import_module", "import_module", "__import__", "runpy.run_module"}
    sites = sorted(
        name
        for name, module in _modules().items()
        for call in module.nodes_of(ast.Call)
        if dotted_name(call.func) in dynamic
    )
    assert sites == ["repro._lazy"]


def test_every_module_imports_without_scipy(tmp_path):
    """SciPy is a test-only dependency: no ``repro`` module needs it."""
    names = sorted(_modules())
    script = (
        "import importlib, sys\n"
        "sys.modules['scipy'] = None\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
    )
    subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=tmp_path,
        stdout=subprocess.DEVNULL,
        check=True,
    )
