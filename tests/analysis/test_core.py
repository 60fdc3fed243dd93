"""Framework core: suppression, parse errors, file discovery, reports."""

import ast

import pytest

from repro.analysis.core import (
    PARSE_ERROR_CODE,
    AnalysisReport,
    Finding,
    Rule,
    SourceModule,
    iter_python_files,
    run_analysis,
)
from repro.analysis.registry import all_rules, get_rule, register, rules_for
from repro.analysis.reporting import render_json


class TestFinding:
    def test_location(self):
        f = Finding("R001", "src/x.py", 10, 4, "msg")
        assert f.location() == "src/x.py:10:4"

    def test_to_dict_keys(self):
        f = Finding("R001", "src/x.py", 10, 4, "msg")
        assert f.to_dict() == {
            "rule": "R001", "path": "src/x.py", "line": 10, "col": 4,
            "message": "msg",
        }

    def test_hashable_for_dedup(self):
        a = Finding("R001", "x.py", 1, 0, "m")
        b = Finding("R001", "x.py", 1, 0, "m")
        assert len({a, b}) == 1


class TestSourceModule:
    """The per-file structures every rule shares."""

    _TEXT = (
        "import numpy as np\n"
        "from .plan import plan_groups\n"
        "from .. import obs\n"
        "def outer(x):\n"
        "    def inner(y):\n"
        "        return y\n"
        "    return inner(x)\n"
    )

    def test_nodes_are_the_ast_walk_list(self):
        m = SourceModule("src/repro/core/sweep.py", self._TEXT)
        assert m.nodes == list(ast.walk(m.tree))

    def test_nodes_of_selects_by_type_in_walk_order(self):
        m = SourceModule("src/repro/core/sweep.py", self._TEXT)
        picked = m.nodes_of(ast.Return, ast.FunctionDef)
        assert picked == [
            n for n in ast.walk(m.tree) if isinstance(n, (ast.Return, ast.FunctionDef))
        ]
        assert m.nodes_of(ast.While) == []

    def test_owner_is_the_innermost_def(self):
        m = SourceModule("src/repro/core/sweep.py", self._TEXT)
        returns = m.nodes_of(ast.Return)
        assert [m.owner(r).name for r in returns] == ["outer", "inner"]
        defs = m.nodes_of(ast.FunctionDef)
        assert m.owner(defs[0]) is None
        assert m.owner(defs[1]) is defs[0]

    def test_imports_resolve_relative_to_the_module(self):
        m = SourceModule("src/repro/core/sweep.py", self._TEXT)
        assert m.module_name == "repro.core.sweep"
        assert m.imports.aliases == {
            "np": "numpy",
            "plan_groups": "repro.core.plan.plan_groups",
            "obs": "repro.obs",
        }

    def test_package_init_is_its_own_anchor(self):
        m = SourceModule("src/repro/faults/__init__.py", "from .atomic import x\n")
        assert m.imports.resolve_chain("x.y") == "repro.faults.atomic.x.y"

    def test_unparseable_source_has_no_nodes(self):
        m = SourceModule("broken.py", "def f(:\n")
        assert m.nodes == [] and m.imports.aliases == {}


class TestSuppression:
    def _module(self, text):
        return SourceModule("fixture.py", text)

    def test_bare_noqa_suppresses_every_rule(self):
        m = self._module("x = 1  # repro: noqa\n")
        assert m.is_suppressed("R001", 1)
        assert m.is_suppressed("R007", 1)

    def test_coded_noqa_suppresses_only_listed_rules(self):
        m = self._module("x = 1  # repro: noqa[R001, R003]\n")
        assert m.is_suppressed("R001", 1)
        assert m.is_suppressed("R003", 1)
        assert not m.is_suppressed("R002", 1)

    def test_case_insensitive(self):
        m = self._module("x = 1  # REPRO: NOQA[r001]\n")
        assert m.is_suppressed("R001", 1)

    def test_reason_text_allowed(self):
        m = self._module("x = 1  # repro: noqa[R001] -- host measurement\n")
        assert m.is_suppressed("R001", 1)

    def test_other_lines_unaffected(self):
        m = self._module("x = 1  # repro: noqa[R001]\ny = 2\n")
        assert not m.is_suppressed("R001", 2)

    def test_plain_flake8_noqa_is_not_ours(self):
        m = self._module("x = 1  # noqa: F821\n")
        assert not m.is_suppressed("R001", 1)


class TestNoqaSpan:
    """A pragma anywhere on a multi-line statement covers the whole span."""

    def _module(self, text):
        return SourceModule("fixture.py", text)

    def test_pragma_on_last_line_covers_first(self):
        m = self._module("x = compute(\n    1,\n    2,\n)  # repro: noqa[R001]\n")
        for line in (1, 2, 3, 4):
            assert m.is_suppressed("R001", line)
        assert not m.is_suppressed("R002", 1)

    def test_pragma_on_first_line_covers_last(self):
        m = self._module("x = compute(  # repro: noqa\n    1,\n)\n")
        assert m.is_suppressed("R001", 3)
        assert m.is_suppressed("R007", 3)

    def test_codes_union_across_the_span(self):
        m = self._module(
            "x = f(  # repro: noqa[R001]\n    g(),  # repro: noqa[R003]\n)\n"
        )
        assert m.is_suppressed("R001", 2)
        assert m.is_suppressed("R003", 1)
        assert not m.is_suppressed("R002", 1)

    def test_bare_pragma_dominates_coded_one(self):
        m = self._module("x = f(  # repro: noqa\n    g(),  # repro: noqa[R003]\n)\n")
        assert m.is_suppressed("R002", 2)

    def test_compound_statement_header_does_not_leak_into_body(self):
        m = self._module("if flag:  # repro: noqa[R001]\n    x = 1\n")
        assert m.is_suppressed("R001", 1)
        assert not m.is_suppressed("R001", 2)

    def test_unparseable_source_keeps_line_local_pragmas(self):
        m = self._module("x = 1  # repro: noqa[R001]\ndef f(:\n")
        assert m.tree is None
        assert m.is_suppressed("R001", 1)
        assert not m.is_suppressed("R001", 2)


class TestParseErrors:
    def test_syntax_error_yields_e001(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = run_analysis([bad], all_rules(), root=tmp_path)
        assert report.exit_code == 1
        assert [f.rule for f in report.findings] == [PARSE_ERROR_CODE]

    def test_source_module_records_error(self):
        m = SourceModule("broken.py", "def f(:\n")
        assert m.tree is None
        assert m.parse_error is not None


class TestFileDiscovery:
    def test_skips_cache_dirs_and_dedups(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path, tmp_path / "pkg" / "a.py"])
        assert [p.name for p in files] == ["a.py"]

    def test_non_python_file_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello\n")
        assert iter_python_files([tmp_path / "notes.txt"]) == []

    def test_same_path_given_twice_yields_one_entry(self, tmp_path):
        f = tmp_path / "once.py"
        f.write_text("x = 1\n")
        assert [p.name for p in iter_python_files([f, f, tmp_path])] == ["once.py"]

    def test_skips_vcs_and_venv_dirs(self, tmp_path):
        for skipped in (".git", ".venv", "build"):
            (tmp_path / skipped).mkdir()
            (tmp_path / skipped / "hidden.py").write_text("x = 1\n")
        (tmp_path / "kept.py").write_text("x = 1\n")
        assert [p.name for p in iter_python_files([tmp_path])] == ["kept.py"]


class TestReport:
    def test_exit_codes(self):
        assert AnalysisReport().exit_code == 0
        assert AnalysisReport(findings=[Finding("R001", "x", 1, 0, "m")]).exit_code == 1

    def test_by_rule_counts_sorted(self):
        report = AnalysisReport(findings=[
            Finding("R003", "x", 1, 0, "m"),
            Finding("R001", "x", 2, 0, "m"),
            Finding("R003", "x", 3, 0, "m"),
        ])
        assert report.by_rule() == {"R001": 1, "R003": 2}

    def test_to_dict_schema(self):
        d = AnalysisReport(files_checked=3, rules_run=("R001",)).to_dict()
        assert d["version"] == 1
        assert set(d) == {
            "version", "files_checked", "rules_run", "findings",
            "suppressed", "by_rule", "exit_code",
        }

    def test_findings_sorted_by_location(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "a.py").write_text("import time\nt = time.time()\n")
        report = run_analysis([tmp_path], rules_for(["R001"]), root=tmp_path)
        assert [f.path for f in report.findings] == ["a.py", "b.py"]

    def test_suppressed_counted_not_reported(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "import time\nt = time.time()  # repro: noqa[R001]\n"
        )
        report = run_analysis([tmp_path], rules_for(["R001"]), root=tmp_path)
        assert report.exit_code == 0
        assert report.suppressed == 1


class TestColdPass:
    """One run analyses every file afresh: nothing is carried between runs,
    so a report is a function of the tree and the rule selection alone."""

    def _tree(self, tmp_path):
        """Three files: clean, one R001 finding, one suppressed R001."""
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "clean.py").write_text("x = 1\n")
        (pkg / "hot.py").write_text("import time\nt = time.time()\n")
        (pkg / "quiet.py").write_text(
            "import time\nt = time.time()  # repro: noqa[R001] -- fixture\n"
        )
        return pkg

    def _run(self, tmp_path, pkg, rules=None):
        return run_analysis(
            [pkg], rules if rules is not None else all_rules(), root=tmp_path
        )

    def test_repeat_run_reports_identically(self, tmp_path):
        pkg = self._tree(tmp_path)
        (pkg / "broken.py").write_text("def f(:\n")
        first, second = self._run(tmp_path, pkg), self._run(tmp_path, pkg)
        assert first.stats.files_checked == second.stats.files_checked == 4
        assert render_json(first) == render_json(second)
        assert any(f.rule == PARSE_ERROR_CODE for f in second.findings)
        assert first.suppressed == second.suppressed == 1

    def test_content_change_shows_in_next_run(self, tmp_path):
        pkg = self._tree(tmp_path)
        self._run(tmp_path, pkg)
        (pkg / "hot.py").write_text("x = 1\n")
        again = self._run(tmp_path, pkg)
        assert not any(f.path.endswith("hot.py") for f in again.findings)

    def test_new_file_joins_next_run(self, tmp_path):
        pkg = self._tree(tmp_path)
        self._run(tmp_path, pkg)
        (pkg / "late.py").write_text("import time\nt = time.time()\n")
        again = self._run(tmp_path, pkg)
        assert again.stats.files_checked == 4
        # late.py carries the usual R001+R006 pair for a bare time.time().
        assert sum(f.path.endswith("late.py") for f in again.findings) == 2

    def test_rule_selection_narrows_findings(self, tmp_path):
        pkg = self._tree(tmp_path)
        everything = self._run(tmp_path, pkg)
        narrowed = self._run(tmp_path, pkg, rules=rules_for(["R001"]))
        assert narrowed.rules_run == ("R001",)
        assert {f.rule for f in narrowed.findings} == {"R001"}
        assert len(narrowed.findings) < len(everything.findings)

    def test_run_writes_no_file(self, tmp_path):
        pkg = self._tree(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert self._run(tmp_path, pkg).exit_code == 1
        assert sorted(tmp_path.rglob("*")) == before


class TestRegistry:
    def test_all_rules_in_code_order(self):
        codes = [r.code for r in all_rules()]
        assert codes == sorted(codes)
        assert {"R001", "R002", "R003", "R006", "R007"} <= set(codes)

    def test_get_rule_case_insensitive(self):
        assert get_rule("r001").code == "R001"

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("R999")

    def test_rules_for_none_is_all(self):
        assert [r.code for r in rules_for(None)] == [r.code for r in all_rules()]

    def test_rules_for_rejects_unknown_selection(self):
        with pytest.raises(KeyError, match="unknown rule 'R999'"):
            rules_for(["R001", "R999"])

    def test_duplicate_code_rejected(self):
        all_rules()  # make sure the built-ins are registered first

        class Shadow(Rule):
            code = "R001"
            name = "shadow"

        with pytest.raises(ValueError, match="duplicate rule code"):
            register(Shadow)

    def test_missing_code_rejected(self):
        class Nameless(Rule):
            name = "nameless"

        with pytest.raises(ValueError, match="has no rule code"):
            register(Nameless)

    def test_reregistering_the_same_class_is_idempotent(self):
        cls = type(get_rule("R001"))
        assert register(cls) is cls
