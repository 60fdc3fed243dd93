"""Incremental lint engine: warm cache vs cold analysis over the repo.

Covers the engine's two claims: a warm cache makes ``repro lint`` at
least 5x faster than a cold run (unchanged files replay cached findings
instead of re-parsing), and caching is *observationally invisible* --
the findings JSON is byte-identical warm vs cold and across worker
counts, so the speedup can never be bought with a stale or reordered
report.
"""

import json
from pathlib import Path

from repro.analysis.core import run_analysis
from repro.analysis.registry import all_rules
from repro.analysis.reporting import render_json

_REPO_ROOT = Path(__file__).resolve().parent.parent

# Warm-over-cold speedup floor and the escalation margin (stop
# re-measuring once the headline has headroom over the floor).
_WARM_TARGET = 5.0
_WARM_MARGIN = 5.5
_EXTRA_ROUNDS = 5
_REPS = 3


def _lint(cache_path):
    return run_analysis(
        [_REPO_ROOT / "src", _REPO_ROOT / "benchmarks"],
        all_rules(),
        root=_REPO_ROOT,
        cache_path=cache_path,
    )


def test_lint_warm_cache_vs_cold(
    benchmark, tmp_path, time_best_of, escalate_until, bench_artifact
):
    """Warm incremental lint >= 5x cold, with a byte-identical report.

    Cold deletes the cache before every rep (full parse + every rule);
    warm replays a fully populated cache.  Both sides and an uncached
    run must render the exact same JSON -- determinism is asserted
    before any timing is trusted.
    """
    cache = tmp_path / ".repro-lint-cache.json"

    def clear_cache():
        cache.unlink(missing_ok=True)

    clear_cache()
    cold_report = _lint(cache)
    warm_report = benchmark(lambda: _lint(cache))
    assert warm_report.stats is not None and warm_report.stats.files_analyzed == 0

    # Caching must be invisible in the output.
    cold_json = render_json(cold_report)
    assert render_json(warm_report) == cold_json
    assert render_json(_lint(None)) == cold_json
    files_checked = json.loads(cold_json)["files_checked"]
    assert files_checked > 90

    best = {}

    def remeasure():
        c, _ = time_best_of(
            "lint.cold", lambda _: _lint(cache), _REPS, setup=clear_cache
        )
        w, _ = time_best_of("lint.warm", lambda: _lint(cache), _REPS)
        best["cold"] = min(best.get("cold", c), c)
        best["warm"] = min(best.get("warm", w), w)

    remeasure()
    escalate_until(
        lambda: best["cold"] / best["warm"],
        remeasure,
        margin=_WARM_MARGIN,
        max_rounds=_EXTRA_ROUNDS,
    )
    speedup = best["cold"] / best["warm"]
    benchmark.extra_info["warm_speedup"] = round(speedup, 2)
    benchmark.extra_info["files_checked"] = files_checked
    bench_artifact(
        "lint.incremental_warm_vs_cold",
        files_checked=files_checked,
        cold_s=best["cold"],
        warm_s=best["warm"],
        speedup=round(speedup, 2),
    )
    assert speedup >= _WARM_TARGET, (
        f"warm lint only {speedup:.1f}x faster than cold (target {_WARM_TARGET}x)"
    )
