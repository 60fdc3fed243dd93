"""Acceptance: the repository itself lints clean under every rule.

This is the gate `make lint` enforces; keeping it in the test suite means
a rule regression (or a new violation) fails CI even when only `make
test` runs.
"""

from pathlib import Path

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.core import SourceModule, iter_python_files, run_analysis
from repro.analysis.locks import extract_concurrency_facts
from repro.analysis.registry import all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_and_benchmarks_lint_clean():
    report = run_analysis(
        [REPO_ROOT / "src", REPO_ROOT / "benchmarks"], all_rules(), root=REPO_ROOT
    )
    assert report.findings == [], "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in report.findings
    )
    assert report.exit_code == 0
    # The telemetry layer's sanctioned perf_counter sites (and the
    # registry's import-time write) stay suppressed, not silent; every
    # other host-measurement site now routes through repro.obs.host_timer.
    assert report.suppressed >= 3
    assert report.files_checked > 90


def test_call_graph_follows_lazy_package_exports():
    """``from repro.harness import build_table`` inside ``execute_request``
    reaches ``repro.harness.tables`` through the package's
    ``lazy_exports`` table, so the call-graph rules see the edge."""
    facts = {}
    for path in iter_python_files([REPO_ROOT / "src"]):
        module = SourceModule.from_path(path, str(path.relative_to(REPO_ROOT)))
        facts[module.display_path] = extract_concurrency_facts(module)
    index = ProjectIndex(facts)
    caller = "repro.service.requests::execute_request"
    assert index.resolve_call(caller, "build_table") == "repro.harness.tables::build_table"
    assert index.resolve_call(caller, "build_figure") == "repro.harness.figures::build_figure"
    assert index.resolve_dotted("repro.core.SweepEngine") == "repro.core.sweep::SweepEngine.__init__"
