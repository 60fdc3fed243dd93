"""Model-evaluation throughput: predictions per second (engine overhead)."""

from repro.compilers.gcc import get_compiler
from repro.core.perfmodel import PerformanceModel
from repro.machines.catalog import get_machine
from repro.npb.signatures import signature_for


def test_prediction_throughput(benchmark, time_best_of, bench_artifact):
    model = PerformanceModel()
    machine = get_machine("sg2044")
    compiler = get_compiler("gcc-15.2")
    sigs = [signature_for(k, "C") for k in ("is", "mg", "ep", "cg", "ft")]

    def sweep():
        return [
            model.predict(machine, sig, compiler, n)
            for sig in sigs
            for n in (1, 2, 4, 8, 16, 32, 64)
        ]

    preds = benchmark(sweep)
    assert len(preds) == 35
    sweep_s, _ = time_best_of("model.predict_sweep", sweep, 3)
    bench_artifact(
        "model.prediction_throughput",
        n_predictions=len(preds),
        sweep_s=sweep_s,
        predictions_per_s=len(preds) / sweep_s,
    )


def test_prediction_throughput_batched(benchmark, time_best_of, bench_artifact):
    model = PerformanceModel()
    machine = get_machine("sg2044")
    compiler = get_compiler("gcc-15.2")
    sigs = [signature_for(k, "C") for k in ("is", "mg", "ep", "cg", "ft")]

    def sweep():
        return model.predict_batch(
            machine, sigs, compiler, (1, 2, 4, 8, 16, 32, 64)
        )

    def loop():
        return [
            model.predict(machine, sig, compiler, n)
            for sig in sigs
            for n in (1, 2, 4, 8, 16, 32, 64)
        ]

    preds = benchmark(sweep)
    assert len(preds) == 35
    # Same grid, same order as the scalar loop above.
    assert preds == loop()

    # About 20 ms of work per timed sample on either side; per-call times.
    batch_s, _ = time_best_of("model.predict_batch", sweep, 5, calls=90)
    loop_s, _ = time_best_of("model.predict_loop", loop, 3, calls=6)
    benchmark.extra_info["batch_speedup"] = round(loop_s / batch_s, 2)
    bench_artifact(
        "model.batch_vs_loop",
        n_predictions=len(preds),
        batch_s=batch_s,
        loop_s=loop_s,
        speedup=round(loop_s / batch_s, 2),
    )
