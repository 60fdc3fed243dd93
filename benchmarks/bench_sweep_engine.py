"""Sweep-engine throughput: batched prediction, caching, and the planner.

Covers the three claims the engine makes: ``predict_batch`` beats the
config-at-a-time loop on grid evaluation, a warmed engine serves whole
table/figure grids from its result cache, and the megagrid planner beats
the per-family path on a cold full-paper regeneration by >= 3x while
producing bit-identical results.  Two cold ``run_many`` queries, one of
4 configs and one of ~2900, put the per-batch fixed cost and the
per-config cost of the cold path on the record separately.
"""

from repro.compilers.gcc import get_compiler
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.perfmodel import PerformanceModel
from repro.core.sweep import SweepEngine, expand_grid
from repro.harness import paper
from repro.machines.catalog import get_machine
from repro.npb.signatures import signature_for

_THREADS = (1, 2, 4, 8, 16, 26, 32, 64)
_ALL_KERNELS = ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp")

# The planner's cold-path speedup floor over the per-family path, and the
# escalation margin (stop re-measuring once the headline has headroom).
_PLANNER_TARGET = 3.0
_PLANNER_MARGIN = 3.3
_PLANNER_EXTRA_ROUNDS = 5


def _paper_grid():
    """The union of every table's and figure's prefetch grid (cold run)."""
    from repro.harness.figures import FIGURE_BUILDERS, figure_grid
    from repro.harness.tables import TABLE_BUILDERS, table_grid

    grid = [c for n in sorted(TABLE_BUILDERS) for c in table_grid(n)]
    grid += [c for n in sorted(FIGURE_BUILDERS) for c in figure_grid(n)]
    return grid


def test_planner_cold_paper_regeneration(
    benchmark, time_best_of, escalate_until, bench_artifact
):
    """Cold full-paper megagrid: planner vs per-family, bit-identical, >= 3x.

    Every rep builds a fresh runner and engine (nothing cached), so this
    measures the one-shot cost of regenerating the paper's entire sweep
    surface -- the exact path ``repro export`` takes on a cold start.
    """
    grid = _paper_grid()

    def run_cold(planner):
        engine = SweepEngine(runner=ExperimentRunner(), jobs=1, planner=planner)
        return engine.run_many(grid, on_dnr="none")

    results = benchmark(lambda: run_cold(True))
    assert len(results) == len(grid)
    # The planner must reproduce the per-family path bit for bit,
    # including the DNR (None) entries table 2 carries.
    assert results == run_cold(False)

    best = {}

    def remeasure():
        p, _ = time_best_of("sweep.planner_cold", lambda: run_cold(True), 3)
        f, _ = time_best_of("sweep.per_family_cold", lambda: run_cold(False), 3)
        best["planner"] = min(best.get("planner", p), p)
        best["per_family"] = min(best.get("per_family", f), f)

    remeasure()
    rounds = escalate_until(
        lambda: best["per_family"] / best["planner"],
        remeasure,
        margin=_PLANNER_MARGIN,
        max_rounds=_PLANNER_EXTRA_ROUNDS,
    )
    speedup = best["per_family"] / best["planner"]
    benchmark.extra_info["planner_speedup"] = round(speedup, 2)
    benchmark.extra_info["n_configs"] = len(grid)
    bench_artifact(
        "sweep.planner_cold_paper_regeneration",
        n_configs=len(grid),
        planner_s=best["planner"],
        per_family_s=best["per_family"],
        speedup=round(speedup, 2),
        extra_rounds=rounds,
    )
    # The tentpole claim: the one-shot megagrid planner makes the cold
    # full-paper regeneration >= 3x faster than the per-family path.
    assert speedup >= _PLANNER_TARGET


def test_batch_vs_loop_prediction(benchmark, time_best_of, bench_artifact):
    """Batched grid evaluation of every paper kernel on both Sophons."""
    model = PerformanceModel()
    compiler = get_compiler("gcc-15.2")
    sigs = [signature_for(k, "C") for k in paper.KERNELS]
    machines = [get_machine(m) for m in ("sg2044", "sg2042")]

    def sweep():
        return [
            p
            for machine in machines
            for p in model.predict_batch(machine, sigs, compiler, _THREADS)
        ]

    preds = benchmark(sweep)
    assert len(preds) == len(machines) * len(sigs) * len(_THREADS)
    # The batch path must agree with the one-at-a-time path exactly.
    spot = model.predict(machines[0], sigs[0], compiler, _THREADS[-1])
    assert spot in preds
    sweep_s, _ = time_best_of("sweep.batch_grid", sweep, 3)
    bench_artifact(
        "sweep.batch_grid_prediction",
        n_predictions=len(preds),
        sweep_s=sweep_s,
        predictions_per_s=len(preds) / sweep_s,
    )


def test_warm_cache_sweep_regeneration(benchmark, time_best_of, bench_artifact):
    """Re-expanding a Table-4-style grid against a warmed engine."""
    engine = SweepEngine()
    grid = expand_grid(
        ("sg2044", "sg2042"), paper.KERNELS, classes="C", thread_counts=_THREADS
    )
    warm = engine.run_many(grid)
    assert len(warm) == len(grid)

    def regenerate():
        return engine.run_many(grid)

    results = benchmark(regenerate)
    assert results == warm
    assert engine.hits > 0
    regenerate_s, _ = time_best_of("sweep.warm_regenerate", regenerate, 3)
    bench_artifact(
        "sweep.warm_cache_regeneration",
        n_configs=len(grid),
        regenerate_s=regenerate_s,
        configs_per_s=len(grid) / regenerate_s,
    )


def test_thread_sweep_through_engine(benchmark, time_best_of, bench_artifact):
    """One figure line (64-point family collapse) through sweep_threads."""
    engine = SweepEngine()
    config = ExperimentConfig(machine="sg2044", kernel="cg", vectorise=False)

    def sweep():
        engine.clear_cache()
        return engine.sweep_threads(config, _THREADS)

    results = benchmark(sweep)
    assert [r.n_threads for r in results] == list(_THREADS)
    assert all(r.kernel == "cg" for r in results)
    sweep_s, _ = time_best_of("sweep.thread_line", sweep, 3)
    bench_artifact(
        "sweep.thread_line_cold",
        n_points=len(results),
        sweep_s=sweep_s,
        points_per_s=len(results) / sweep_s,
    )


def _cold_query_large():
    """~2900 configs over 4 machines: every kernel, class S-C, both
    vectorise settings, and every listed thread count each machine has."""
    threads = (1, 2, 4, 8, 12, 16, 26, 32, 48, 64)
    grid = []
    for machine in ("sg2044", "sg2042", "epyc7742", "skylake8170"):
        cores = get_machine(machine).n_cores
        grid += expand_grid(
            machine,
            _ALL_KERNELS,
            classes=("S", "W", "A", "B", "C"),
            thread_counts=[t for t in threads if t <= cores],
            vectorise=(True, False),
        )
    return grid


def _time_cold_query(time_best_of, label, grid, reps):
    """Best-of-``reps`` cold ``run_many`` (fresh engine and runner each)."""

    def run_cold():
        return SweepEngine(runner=ExperimentRunner(), jobs=1).run_many(grid, on_dnr="none")

    results = run_cold()
    assert len(results) == len(grid)
    # Bit-identical to the per-family path, whatever the batch shape.
    engine = SweepEngine(runner=ExperimentRunner(), jobs=1, planner=False)
    assert results == engine.run_many(grid, on_dnr="none")
    query_s, _ = time_best_of(label, run_cold, reps)
    return query_s


def test_cold_query_small(benchmark, time_best_of, bench_artifact):
    """4 configs on one machine: the cold path's per-batch fixed cost."""
    grid = expand_grid("sg2044", ("is", "mg"), classes="C", thread_counts=(1, 64))
    assert len(grid) == 4
    benchmark(lambda: SweepEngine(runner=ExperimentRunner(), jobs=1).run_many(grid))
    query_s = _time_cold_query(time_best_of, "sweep.cold_query_small", grid, 20)
    bench_artifact(
        "sweep.cold_query_small",
        n_configs=len(grid),
        batch_fixed_s=query_s,
    )


def test_cold_query_large(benchmark, time_best_of, bench_artifact):
    """~2900 configs on 4 machines: the cold path's per-config cost."""
    grid = _cold_query_large()
    assert 2800 <= len(grid) <= 3000
    benchmark(
        lambda: SweepEngine(runner=ExperimentRunner(), jobs=1).run_many(grid, on_dnr="none")
    )
    query_s = _time_cold_query(time_best_of, "sweep.cold_query_large", grid, 5)
    bench_artifact(
        "sweep.cold_query_large",
        n_configs=len(grid),
        query_s=query_s,
        per_config_s=query_s / len(grid),
        configs_per_s=len(grid) / query_s,
    )
