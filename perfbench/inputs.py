"""Seeded input generation for every workload.

Everything here is a pure function of the seed (and the program's
public catalog: machine core counts, compiler names, kernel names), so
the same seed always yields the same inputs and the program under test
only ever sees the generated payloads.
"""

from __future__ import annotations

import random

from repro.compilers import compiler_names
from repro.machines import all_machines
from repro.npb.params import ALL_BENCHMARKS

CLASSES = ("S", "W", "A", "B", "C")
THREAD_CHOICES = (1, 2, 4, 8, 16, 32, 64)

#: design_sweep batch-size strata (configs per query), log-spread from a
#: handful to a few thousand.  Every cycle of queries visits each stratum
#: once, in a seeded order.  The run repeats all the cycles' queries in
#: rotation, so each query runs several times and its fastest run is
#: known; more cycles would leave fewer runs of each.
SWEEP_STRATA = (4, 12, 40, 120, 400, 1200, 3000)
DESIGN_CYCLES = 3
ORACLE_SAMPLES_PER_QUERY = 2

#: service_mix open-loop rates.  ``SERVICE_CAPACITY`` is the rate (req/s)
#: beyond which the seed's backlog grew under this load generator on a
#: 2-CPU host; the phase rates are fixed fractions of it and never
#: re-measured, so a faster service shows up as lower latency, not as a
#: different offered load.
SERVICE_CAPACITY = 22.0
#: fresh-sweep size (configs): one narrow band, so the light-phase median
#: reads the same from seed to seed (design_sweep covers size variation);
#: small, so that per-request work outweighs filesystem noise in the store.
FRESH_SWEEP_SIZE = 2
LIGHT_RATE = 0.25 * SERVICE_CAPACITY
BUSY_RATE = 0.75 * SERVICE_CAPACITY
LIGHT_SHARE = 0.5  # of the timed seconds; the busy phase gets the rest
#: The request mix as a fixed 20-slot cycle: 55% fresh sweeps, 15%
#: pre-warm resubmits, 15% in-run resubmits, 10% table/figure, 5% whatif.
#: Each phase walks the cycle from its start.  A fixed order (seeds only
#: pick the payloads) keeps each phase's latency distribution, and so its
#: percentiles, the same from seed to seed; slow kinds are spread out.
PATTERN = (
    "fresh", "prewarm", "fresh", "resubmit", "fresh", "artifact", "fresh",
    "prewarm", "fresh", "resubmit", "fresh", "whatif", "fresh", "prewarm",
    "fresh", "resubmit", "fresh", "artifact", "fresh", "fresh",
)
#: Table/figure requests in the order the run cycles through them.
#: Table 5 serves as warm-up instead (see :func:`warmup_requests`).
ARTIFACTS = [("table", n) for n in (1, 2, 3, 4, 6, 7, 8)] + [
    ("figure", n) for n in range(1, 7)
]


def machine_cores() -> dict[str, int]:
    return {m.name: m.n_cores for m in all_machines()}


def _skewed_count(rng: random.Random, limit: int) -> int:
    """1..limit, biased toward small counts so tiny grids are reachable."""
    return 1 + int(rng.random() ** 2 * limit) if limit > 1 else 1


def design_query_size(query: dict, cores: dict[str, int]) -> int:
    per_machine = (
        len(query["kernels"])
        * len(query["classes"])
        * len(query["compilers"])
        * len(query["vectorise"])
    )
    return sum(
        per_machine * len([t for t in query["threads"] if t <= cores[m]])
        for m in query["machines"]
    )


def _design_query(rng: random.Random, target: int, cores: dict, compilers: list) -> dict:
    lo, hi = target / 1.25, target * 1.25
    machines = sorted(cores)
    while True:
        query = {
            "machines": rng.sample(machines, _skewed_count(rng, len(machines))),
            "kernels": rng.sample(ALL_BENCHMARKS, _skewed_count(rng, len(ALL_BENCHMARKS))),
            "classes": rng.sample(CLASSES, _skewed_count(rng, len(CLASSES))),
            "threads": sorted(rng.sample(THREAD_CHOICES, _skewed_count(rng, len(THREAD_CHOICES)))),
            "compilers": rng.sample(compilers, _skewed_count(rng, len(compilers))),
            "vectorise": rng.choice([[True], [False], [True, False]]),
        }
        size = design_query_size(query, cores)
        if lo <= size <= hi:
            query["size"] = size
            query["sample"] = sorted(
                rng.randrange(size) for _ in range(ORACLE_SAMPLES_PER_QUERY)
            )
            return query


def design_queries(seed: int) -> list[dict]:
    """Axis subsets for ``design_sweep``, one stratum each per cycle.

    Thread counts are filtered per machine when the grid is expanded
    (never above the machine's cores), so every config is valid.
    """
    rng = random.Random(f"design_sweep/{seed}")
    cores = machine_cores()
    # Named compilers only: ``None`` would resolve to a machine default
    # that may also be named, and such duplicates would be cache hits.
    compilers = list(compiler_names())
    queries = []
    for _ in range(DESIGN_CYCLES):
        strata = list(SWEEP_STRATA)
        rng.shuffle(strata)
        queries.extend(_design_query(rng, target, cores, compilers) for target in strata)
    return queries


def expand_query(query: dict, cores: dict[str, int]) -> list:
    """The config list a design query resolves to (valid threads only)."""
    from repro.core.sweep import expand_grid

    configs = []
    for machine in query["machines"]:
        threads = [t for t in query["threads"] if t <= cores[machine]]
        if threads:
            configs += expand_grid(
                machine,
                query["kernels"],
                classes=query["classes"],
                thread_counts=threads,
                compilers=query["compilers"],
                vectorise=query["vectorise"],
            )
    return configs


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------


def _sweep_payload(rng: random.Random, cores: dict, compilers: list, target: int) -> dict:
    """A small sweep of about ``target`` configs whose threads fit every machine."""
    while True:
        machines = rng.sample(sorted(cores), rng.randint(1, 2))
        limit = min(cores[m] for m in machines)
        threads = [t for t in THREAD_CHOICES if t <= limit]
        payload = {
            "kind": "sweep",
            "machines": machines,
            "kernels": rng.sample(ALL_BENCHMARKS, rng.randint(1, 3)),
            "classes": rng.sample(CLASSES, rng.randint(1, 2)),
            "threads": sorted(rng.sample(threads, min(len(threads), rng.randint(1, 3)))),
        }
        compiler_axis = rng.sample(compilers, rng.randint(0, 2))
        if compiler_axis:
            payload["compilers"] = compiler_axis
        vectorise = rng.choice([None, True, False])
        if vectorise is not None:
            payload["vectorise"] = vectorise
        size = len(compiler_axis) or 1
        for axis in ("machines", "kernels", "classes", "threads"):
            size *= len(payload[axis])
        if target / 1.5 <= size <= target * 1.5:
            return payload


def _sweep_configs(payload: dict) -> set[tuple]:
    """The configs a sweep payload resolves to, defaults filled in."""
    from repro.core.sweep import expand_grid

    grid = expand_grid(
        payload["machines"],
        payload["kernels"],
        classes=payload["classes"],
        thread_counts=payload["threads"],
        compilers=payload.get("compilers"),
        vectorise=payload.get("vectorise"),
    )
    return {
        (c.machine, c.kernel, c.npb_class, c.n_threads, c.resolved_compiler(), c.vectorise)
        for c in grid
    }


def warmup_requests() -> list[dict]:
    """Untimed requests that finish the measured server's lazy set-up.

    One sweep touches every machine x kernel pair, so each calibration
    anchor is computed once, as in a long-running server; Table 5 loads
    the harness modules (it is left out of the timed rotation, and
    Table 1's cold cache simulation stays in it).
    """
    return [
        {
            "kind": "sweep",
            "machines": sorted(machine_cores()),
            "kernels": list(ALL_BENCHMARKS),
            "classes": ["S"],
            "threads": [1],
        },
        {"kind": "table", "number": 5},
    ]


def _respell(rng: random.Random, payload: dict) -> dict:
    """The same request with its axis lists in another order."""
    out = dict(payload)
    for name in ("machines", "kernels", "classes", "threads", "compilers"):
        if name in out:
            values = list(out[name])
            rng.shuffle(values)
            out[name] = values
    return out


def service_schedule(seed: int, seconds: float) -> dict:
    """Pre-warm session plus the timed open-loop arrivals.

    Returns ``{"prewarm": [payload...], "light": [...], "busy": [...]}``;
    each arrival is ``{"category", "payload"}``.  Arrivals within a phase
    are evenly spaced at the phase rate and follow :data:`PATTERN`.
    Fresh sweeps share no config with any other sweep of the run; pre-warm
    resubmits each pick a distinct pre-warm request (so each is served
    from the store, not by dedup); in-run resubmits respell an earlier
    fresh sweep.
    """
    rng = random.Random(f"service_mix/{seed}")
    cores = machine_cores()
    compilers = list(compiler_names())
    light_n = max(1, round(LIGHT_RATE * LIGHT_SHARE * seconds))
    busy_n = max(1, round(BUSY_RATE * (1.0 - LIGHT_SHARE) * seconds))
    categories = [PATTERN[i % len(PATTERN)] for n in (light_n, busy_n) for i in range(n)]

    # Fresh sweeps share no config with the warm-up, the pre-warm session
    # or each other, so every one runs cold and they all cost alike.
    used = _sweep_configs(warmup_requests()[0])

    def fresh_sweep() -> dict:
        while True:
            payload = _sweep_payload(rng, cores, compilers, FRESH_SWEEP_SIZE)
            configs = _sweep_configs(payload)
            if used.isdisjoint(configs):
                used.update(configs)
                return payload

    prewarm = [fresh_sweep() for _ in range(categories.count("prewarm") + 2)]
    unused_prewarm = list(prewarm)
    rng.shuffle(unused_prewarm)
    fresh_so_far: list[dict] = []
    n_artifacts = 0
    arrivals = []
    for category in categories:
        if category == "fresh":
            payload = fresh_sweep()
            fresh_so_far.append(payload)
        elif category == "prewarm":
            payload = _respell(rng, unused_prewarm.pop())
        elif category == "resubmit":
            payload = _respell(rng, rng.choice(fresh_so_far))
        elif category == "artifact":
            kind, number = ARTIFACTS[n_artifacts % len(ARTIFACTS)]
            n_artifacts += 1
            payload = {"kind": kind, "number": number}
        else:
            payload = {
                "kind": "whatif",
                "kernel": rng.choice(ALL_BENCHMARKS),
                "threads": rng.randint(1, 64),
            }
        arrivals.append({"category": category, "payload": payload})
    return {
        "prewarm": prewarm,
        "light": arrivals[:light_n],
        "busy": arrivals[light_n:],
        "light_rate": LIGHT_RATE,
        "busy_rate": BUSY_RATE,
    }
