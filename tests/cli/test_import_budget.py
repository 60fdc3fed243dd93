"""Per-command import budgets: each ``repro`` process loads only what it runs.

Every case runs a fresh interpreter and inspects ``sys.modules`` after
the command finished, so the assertions count modules, not
milliseconds, and hold on any host.  The forbidden lists are the
packages a command used to drag in without using them: the lint
framework through the parser's help text, the sweep engine through the
eager ``repro`` package surface, ``multiprocessing`` and
``concurrent.futures`` through the sweep module, the store through the
default engine.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core
import repro.harness

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Runs ``python -m repro <argv>`` in-process, then dumps ``sys.modules``
#: (snapshotted before ``json`` is imported) to the file named first.
_RUN_CLI = """
import runpy, sys
out, sys.argv = sys.argv[1], ["repro", *sys.argv[2:]]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(sys.modules)
import json
with open(out, "w") as fh:
    json.dump({"code": code, "modules": loaded}, fh)
"""

#: Runs a snippet, then dumps ``sys.modules`` the same way.
_RUN_SNIPPET = """
import sys
out, snippet = sys.argv[1], sys.argv[2]
exec(compile(snippet, "<snippet>", "exec"), {})
loaded = sorted(sys.modules)
import json
with open(out, "w") as fh:
    json.dump({"code": 0, "modules": loaded}, fh)
"""

#: Loaded by nothing but the commands that need them.
HEAVY_FOR_EXPORT = (
    "repro.analysis",
    "repro.service",
    "repro.bench",
    "repro.store",
    "multiprocessing",
    "concurrent.futures",
    "scipy",
)


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _loaded(tmp_path: Path, script: str, *args: str) -> set[str]:
    out = tmp_path / "modules.json"
    subprocess.run(
        [sys.executable, "-c", script, str(out), *args],
        env=_env(),
        cwd=tmp_path,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    result = json.loads(out.read_text())
    assert result["code"] in (0, None)
    return set(result["modules"])


def cli_modules(tmp_path: Path, *argv: str) -> set[str]:
    return _loaded(tmp_path, _RUN_CLI, *argv)


def snippet_modules(tmp_path: Path, snippet: str) -> set[str]:
    return _loaded(tmp_path, _RUN_SNIPPET, snippet)


def offenders(modules: set[str], packages) -> list[str]:
    """Every loaded module that is one of ``packages`` or inside one."""
    return sorted(
        m for m in modules for p in packages if m == p or m.startswith(p + ".")
    )


class TestCommandBudgets:
    def test_machines_loads_only_the_catalog(self, tmp_path):
        modules = cli_modules(tmp_path, "machines")
        assert "repro.machines.catalog" in modules  # the command did run
        forbidden = ("repro.core", "repro.analysis", "repro.harness", "repro.npb", "scipy")
        assert offenders(modules, forbidden) == []

    def test_export(self, tmp_path):
        modules = cli_modules(tmp_path, "export", str(tmp_path / "out"))
        assert (tmp_path / "out" / "INDEX.md").exists()
        assert offenders(modules, HEAVY_FOR_EXPORT) == []
        # Without --store nothing persists: the store and its codec stay out.
        assert "repro.store" not in modules

    def test_table6(self, tmp_path):
        modules = cli_modules(tmp_path, "table", "6")
        assert "repro.harness.tables" in modules
        assert offenders(modules, HEAVY_FOR_EXPORT) == []
        assert offenders(modules, ("repro.harness.figures", "repro.harness.scorecard")) == []

    def test_store_flag_loads_the_store(self, tmp_path):
        # Positive control: the budget lists above are not vacuous.
        modules = cli_modules(tmp_path, "table", "6", "--store", str(tmp_path / "store"))
        assert "repro.store" in modules

    def test_signature_does_not_load_the_sweep_engine(self, tmp_path):
        modules = snippet_modules(tmp_path, "import repro.core.signature")
        assert "repro.core.signature" in modules
        assert offenders(modules, ("repro.core.sweep", "repro.core.plan", "numpy")) == []

    def test_functional_suite_loads_no_scipy(self, tmp_path):
        modules = snippet_modules(tmp_path, "import repro.npb.suite")
        assert "repro.npb.cg" in modules
        assert offenders(modules, ("scipy",)) == []

    def test_npb_command_loads_no_scipy(self, tmp_path):
        modules = cli_modules(tmp_path, "npb", "ep", "--npb-class", "S")
        assert "repro.npb.ep" in modules
        assert offenders(modules, ("scipy",)) == []

    def test_cluster_loads_no_functional_kernel(self, tmp_path):
        # The projection is analytic: no functional EP, no EP thread
        # split, and of repro.mpi only the projection and its link model.
        modules = cli_modules(tmp_path, "cluster", "sg2044", "ep", "--sockets", "1", "2")
        assert offenders(modules, ("repro.mpi",)) == [
            "repro.mpi",
            "repro.mpi.cluster",
            "repro.mpi.netmodel",
        ]
        assert offenders(modules, ("repro.npb.ep", "repro._two_threads")) == []

    def test_whatif_request_does_not_load_the_functional_suite(self, tmp_path):
        snippet = (
            "from repro.service.requests import parse_request\n"
            "parse_request({'kind': 'whatif', 'kernel': 'cg'})"
        )
        modules = snippet_modules(tmp_path, snippet)
        assert offenders(modules, ("repro.npb.suite", "repro.npb.cg", "scipy")) == []


LAZY_PACKAGES = [repro, repro.core, repro.harness]


@pytest.mark.parametrize("package", LAZY_PACKAGES, ids=lambda p: p.__name__)
class TestLazySurface:
    def test_every_exported_name_resolves(self, package):
        for name in package.__all__:
            assert getattr(package, name) is not None, name

    def test_dir_lists_every_exported_name(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
        assert not hasattr(package, "no_such_name")


def test_package_exports_resolve_to_their_definitions():
    from repro.core.experiment import ExperimentConfig
    from repro.core.sweep import SweepEngine

    assert repro.ExperimentConfig is ExperimentConfig
    assert repro.core.SweepEngine is SweepEngine


def test_example_import_lines_work(tmp_path):
    """Every ``repro`` import the examples make, in one fresh interpreter."""
    lines = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                lines.append(ast.unparse(node))
            elif isinstance(node, ast.Import) and any(
                a.name.startswith("repro") for a in node.names
            ):
                lines.append(ast.unparse(node))
    assert any(line.startswith("from repro import") for line in lines)
    modules = snippet_modules(tmp_path, "\n".join(lines))
    assert "repro.core.experiment" in modules
