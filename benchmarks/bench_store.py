"""Result-store microbenchmarks: put/get throughput and warm restart.

The store's job is to be cheaper than recomputation by a wide margin:
a ``get`` is one file read + sha256 over a small JSON entry, a ``put``
is one atomic write.  These benches put numbers on that floor and pin
the engine-level contract -- a fresh engine sharing only the store
directory re-runs a grid with **zero** configs executed and
bit-identical results.

Reported per run (schema-v1 bench artifact): put/get ops per second
over a small-result corpus, the per-put cost into a store already
holding 1000 entries (publication appends to a recency log, so it should
not grow with store size), and the warm-restart hit counters.
"""

import itertools

from repro import obs
from repro.core.sweep import SweepEngine, expand_grid
from repro.store import ResultStore

_N_ENTRIES = 200
_SIZED_ENTRIES = 1000
_SIZED_PUTS = 50


def _row(i: int) -> str:
    return f"machine,kernel,mops\nsg2044,ep,{i * 1.25}\n"


def test_store_put_get_throughput(benchmark, bench_artifact, time_best_of, tmp_path):
    store = ResultStore(tmp_path / "store")
    items = {("bench", "entry", i): _row(i) for i in range(_N_ENTRIES)}

    def put_all():
        store.put_many(items)

    def get_all():
        found = store.get_many(list(items))
        assert len(found) == _N_ENTRIES
        return found

    put_s, _ = time_best_of("store.put_many", put_all, 3)
    get_s, found = time_best_of("store.get_many", get_all, 3)
    assert found[("bench", "entry", 7)] == items[("bench", "entry", 7)]

    benchmark(get_all)
    benchmark.extra_info["get_ops_per_s"] = round(_N_ENTRIES / get_s)
    bench_artifact(
        "store.put_get_throughput",
        entries=_N_ENTRIES,
        put_s=put_s,
        get_s=get_s,
        put_ops_per_s=_N_ENTRIES / put_s,
        get_ops_per_s=_N_ENTRIES / get_s,
    )



def test_store_put_at_size(benchmark, bench_artifact, time_best_of, tmp_path):
    """Per-put cost of new entries into a store pre-filled with 1000."""
    store = ResultStore(tmp_path / "store")
    store.put_many({("bench", "fill", i): _row(i) for i in range(_SIZED_ENTRIES)})
    batches = itertools.count()

    def put_batch(batch):
        for i in range(_SIZED_PUTS):
            store.put(("bench", "sized", batch, i), _row(i))

    batch_s, _ = time_best_of(
        "store.put_at_size", put_batch, 3, setup=lambda: next(batches)
    )
    assert store.stats()["entries"] >= _SIZED_ENTRIES + 3 * _SIZED_PUTS

    benchmark(lambda: put_batch(next(batches)))
    put_s = batch_s / _SIZED_PUTS
    benchmark.extra_info["put_ms"] = round(put_s * 1e3, 4)
    bench_artifact(
        "store.put_at_size",
        entries=_SIZED_ENTRIES,
        puts=_SIZED_PUTS,
        put_s=put_s,
        put_ops_per_s=1.0 / put_s,
    )

def test_engine_warm_restart(benchmark, bench_artifact, time_best_of, tmp_path):
    """A fresh engine over a populated store executes nothing at all."""
    grid = expand_grid(
        ("sg2042", "sg2044"), ("is", "ep", "mg", "cg"), thread_counts=(1, 4, 16)
    )
    store = ResultStore(tmp_path / "store")
    cold = SweepEngine(store=store).run_many(grid, on_dnr="none")

    recorder = obs.install()
    try:
        warm_s, warm = time_best_of(
            "store.engine_warm_restart",
            lambda engine: engine.run_many(grid, on_dnr="none"),
            3,
            setup=lambda: SweepEngine(store=store),
        )
    finally:
        obs.disable()
    counters = recorder.counters_snapshot()

    assert warm == cold  # bit-identical, not approximately equal
    assert counters.get("sweep.configs_executed", 0) == 0
    assert counters["store.hits"] >= len(grid)

    benchmark(lambda: SweepEngine(store=store).run_many(grid, on_dnr="none"))
    benchmark.extra_info["warm_restart_s"] = round(warm_s, 4)
    bench_artifact(
        "store.engine_warm_restart",
        configs=len(grid),
        warm_s=warm_s,
        store_hits=counters["store.hits"],
        configs_executed=counters.get("sweep.configs_executed", 0),
    )
