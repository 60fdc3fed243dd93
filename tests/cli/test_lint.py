"""The `repro lint` subcommand: exit codes, formats, rule selection."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "analysis" / "fixtures"
#: Every rule's known-good fixture: clean under every rule.  The whole
#: repository's lint is tests/analysis/test_repo_clean.py's job.
CLEAN = sorted(str(p) for p in FIXTURES.glob("*_good.py"))


class TestLintCommand:
    def test_clean_fixtures_are_clean(self, capsys):
        assert main(["lint", *CLEAN]) == 0
        assert f"clean: {len(CLEAN)} file(s)" in capsys.readouterr().out

    def test_lint_writes_no_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "m.py").write_text("import time\nt = time.time()\n")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--stats", "."]) == 1
        assert main(["lint", "--format", "json", "."]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.py"]

    def test_bad_fixture_exits_nonzero(self, capsys):
        rc = main(["lint", str(FIXTURES / "r003_bad.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "R003" in out

    def test_json_format_parses(self, capsys):
        assert main(["lint", "--format", "json", *CLEAN]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["exit_code"] == 0
        assert doc["files_checked"] == len(CLEAN)

    def test_rule_selection(self, capsys):
        rc = main(["lint", "--rules", "R001", str(FIXTURES / "r003_bad.py")])
        assert rc == 0  # R003 violations are invisible to an R001-only run
        rc = main(["lint", "--rules", "R001,R003", str(FIXTURES / "r003_bad.py")])
        assert rc == 1

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--rules", "R999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R001", "R002", "R003", "R006", "R007", "R009", "R010",
                     "R012"):
            assert code in out

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "--format", "yaml"])


class TestLintStats:
    def test_stats_on_stderr_keeps_json_stdout_clean(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.py").write_text("import time\nt = time.time()\n")
        main(["lint", "--stats", "--format", "json", "."])
        cap = capsys.readouterr()
        doc = json.loads(cap.out)  # would raise if stats leaked into stdout
        assert doc["version"] == 1
        assert cap.err.startswith("stats: 1 files | timings ")
        assert "R001 " in cap.err


class TestLintHelp:
    def test_rule_span_derived_from_registry(self, capsys):
        from repro.analysis.registry import registered_codes
        from repro.cli import _lint_help

        codes = registered_codes()
        assert f"{codes[0]}-{codes[-1]}" in _lint_help()
        assert "R012" in _lint_help()  # the highest registered code
