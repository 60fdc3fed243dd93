"""The incremental driver: cache replay, invalidation, cache parity.

The contract under test is *observational invisibility*: a warm cache
may only change how fast ``run_analysis`` gets to its report, never a
byte of the report itself.
"""

from repro.analysis.core import CACHE_FILENAME, run_analysis
from repro.analysis.registry import all_rules, rules_for
from repro.analysis.reporting import render_json


def _tree(tmp_path):
    """Three files: clean, one R001 finding, one suppressed R001."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "clean.py").write_text("x = 1\n")
    (pkg / "hot.py").write_text("import time\nt = time.time()\n")
    (pkg / "quiet.py").write_text(
        "import time\nt = time.time()  # repro: noqa[R001] -- fixture\n"
    )
    return pkg


def _run(tmp_path, pkg, *, rules=None, cache=True):
    return run_analysis(
        [pkg],
        rules if rules is not None else all_rules(),
        root=tmp_path,
        cache_path=(tmp_path / CACHE_FILENAME) if cache else None,
    )


class TestCacheReplay:
    def test_warm_run_analyzes_nothing(self, tmp_path):
        pkg = _tree(tmp_path)
        cold = _run(tmp_path, pkg)
        assert cold.stats.files_analyzed == 3
        warm = _run(tmp_path, pkg)
        assert warm.stats.files_checked == 3
        assert warm.stats.files_cached == 3
        assert warm.stats.files_analyzed == 0
        assert render_json(warm) == render_json(cold)

    def test_replay_preserves_suppressions(self, tmp_path):
        pkg = _tree(tmp_path)
        cold = _run(tmp_path, pkg)
        warm = _run(tmp_path, pkg)
        assert cold.suppressed == warm.suppressed == 1
        assert cold.exit_code == warm.exit_code == 1

    def test_parse_errors_replay_from_cache(self, tmp_path):
        pkg = _tree(tmp_path)
        (pkg / "broken.py").write_text("def f(:\n")
        cold = _run(tmp_path, pkg)
        warm = _run(tmp_path, pkg)
        assert warm.stats.files_analyzed == 0
        assert render_json(warm) == render_json(cold)
        assert any(f.rule == "E001" for f in warm.findings)


class TestCacheInvalidation:
    def test_content_change_reanalyzes_only_that_file(self, tmp_path):
        pkg = _tree(tmp_path)
        _run(tmp_path, pkg)
        (pkg / "hot.py").write_text("x = 1\n")
        warm = _run(tmp_path, pkg)
        assert warm.stats.files_analyzed == 1
        assert warm.stats.files_cached == 2
        assert not any(f.path.endswith("hot.py") for f in warm.findings)

    def test_rule_selection_change_goes_cold(self, tmp_path):
        pkg = _tree(tmp_path)
        _run(tmp_path, pkg)
        narrowed = _run(tmp_path, pkg, rules=rules_for(["R001"]))
        assert narrowed.stats.files_analyzed == 3

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        pkg = _tree(tmp_path)
        cold = _run(tmp_path, pkg)
        (tmp_path / CACHE_FILENAME).write_text("{not json")
        again = _run(tmp_path, pkg)
        assert again.stats.files_analyzed == 3
        assert render_json(again) == render_json(cold)

    def test_new_file_joins_without_invalidating_others(self, tmp_path):
        pkg = _tree(tmp_path)
        _run(tmp_path, pkg)
        (pkg / "late.py").write_text("import time\nt = time.time()\n")
        warm = _run(tmp_path, pkg)
        assert warm.stats.files_analyzed == 1
        assert warm.stats.files_cached == 3
        # late.py carries the usual R001+R006 pair for a bare time.time().
        assert sum(f.path.endswith("late.py") for f in warm.findings) == 2

    def test_no_cache_path_writes_nothing(self, tmp_path):
        pkg = _tree(tmp_path)
        report = _run(tmp_path, pkg, cache=False)
        assert report.exit_code == 1
        assert not (tmp_path / CACHE_FILENAME).exists()


class TestCacheParity:
    def test_report_identical_across_cache_states(self, tmp_path):
        pkg = _tree(tmp_path)
        for i in range(9):
            (pkg / f"gen{i}.py").write_text(
                "import time\n" + ("t = time.time()\n" if i % 2 else "x = 1\n")
            )
        uncached = _run(tmp_path, pkg, cache=False)
        cold = _run(tmp_path, pkg)
        warm = _run(tmp_path, pkg)
        assert warm.stats.files_analyzed == 0
        assert render_json(cold) == render_json(uncached)
        assert render_json(warm) == render_json(uncached)
