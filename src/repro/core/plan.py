"""One-shot megakernel grid planner: whole-artifact flattened evaluation.

The sweep engine's per-family path evaluates one thread-sweep family per
:meth:`PerformanceModel.predict_batch` call -- a whole table regeneration
is dozens of small vectorised passes plus per-config ``default_rng``
construction.  This module flattens *all* cold families of a batch into
one structured-array **megagrid** (one row per config, per-family columns
broadcast across each family's row slice), evaluates the model's four
cost terms in a single pass per machine segment, and derives every
config's measurement-noise PCG64 stream in bulk.  Everything after the
cost terms -- calibration scaling, noise magnitudes, the per-run times
and Mop/s, and the result records -- is one batch-wide tail
(:func:`_measure_batch`) over all live request rows, not a loop over
families.

Exactness contract: every number produced here is **bit-identical** to
the per-family path.  That falls out of three properties:

* every arithmetic step below mirrors ``_raw_time_grid`` (and the
  ``predict_batch`` assembly) operation for operation, preserving
  evaluation order and associativity -- IEEE-754 arithmetic is
  deterministic per operation, so elementwise-equal inputs through the
  same operation DAG give elementwise-equal outputs;
* calibration anchors are evaluated as extra single-thread rows of the
  same megagrid and converted through the shared
  :func:`repro.core.calibration.factors_from_raw`;
* the noise streams are seeded per config (sha256 of the config key via
  :func:`repro.core.experiment.measurement_seed`); the bulk PCG64 state
  derivation below is validated against ``np.random.default_rng`` at
  first use and falls back to per-config construction if NumPy's seeding
  ever changes.

The planner is deliberately side-effect free: no :mod:`repro.obs`
counters or spans, no journal writes, no engine-cache mutation.  The
caller (``SweepEngine._execute_groups_planned``) commits results and
telemetry per family so counters, span trees and journals are
indistinguishable from per-family execution.  When a batch uses any
feature the flat pass cannot reproduce (subclassed runner or model,
invalid thread counts that must raise from ``predict_batch``), the
planner refuses with :class:`PlanNotApplicable` and the engine falls
back to the per-family path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from repro.compilers.gcc import default_compiler_for, get_compiler
from repro.compilers.model import vectorisation_outcome
from repro.machines.catalog import get_machine
from repro.machines.memory import smoothmin_grid

from .calibration import anchor_for, factors_from_raw
from .experiment import ExperimentConfig, ExperimentRunner, measurement_seed
from .perfmodel import DNRError, PerformanceModel, Prediction
from .results import ExperimentResult, RunSample

__all__ = [
    "PlanNotApplicable",
    "plan_groups",
    "GRID_DTYPE",
    "fastpath_available",
]


class PlanNotApplicable(Exception):
    """The flat megagrid pass cannot reproduce this batch bit-identically.

    Raised before any work happens; the engine falls back to the
    per-family path, which then raises (or computes) exactly what the
    sequential engine always did.
    """


#: One megagrid row per config: the thread count plus every per-family
#: quantity ``_raw_time_grid`` consumes, broadcast across the family's
#: row slice so machine segments evaluate in one vectorised pass.
GRID_DTYPE = np.dtype(
    [
        ("n", np.int64),  # thread count (the only per-row axis)
        ("ws_bytes", np.float64),  # sig.working_set_bytes
        ("total_instructions", np.float64),
        ("total_dram_bytes", np.float64),
        ("neighbour_op_bytes", np.float64),  # comm.neighbour_bytes * total_ops
        ("alltoall_op_bytes", np.float64),  # comm.alltoall_bytes * total_ops
        ("n_barriers", np.float64),  # barriers_per_mop * total_mops
        ("rate_per_core", np.float64),  # scalar rate * quality * vec multiplier
        ("serial_fraction", np.float64),
        ("imbalance_coeff", np.float64),
        ("numa_sensitive", np.bool_),
        ("sus_bw_satq_gbs", np.float64),  # sustained_bw_gbs * satq
        ("lat_total", np.float64),  # random accesses not latency-hidden
        ("mlp", np.float64),  # core_mlp * gather_mlp_factor
        ("fit_mid", np.float64),
        ("fit_llc", np.float64),
        ("cap_llc", np.float64),  # random_rate_cap * llc_boost * satq
        ("cap_dram", np.float64),  # random_rate_cap * satq
        ("latency_multiplier", np.float64),
    ]
)


@dataclass
class _FamilyPlan:
    """One thread-sweep family's slice of the megagrid (or an anchor row)."""

    group: list[ExperimentConfig]
    machine: object
    sig: object
    compiler_name: str
    compiler: object
    vectorise: bool
    anchor: object = None  # Anchor for calibration rows; None for requests
    dnr: DNRError | None = None
    vectorised: bool = False
    notes: tuple = ()
    rows: slice | None = None
    calibration_factor: float = 1.0


# ----------------------------------------------------------------------
# Flat evaluation of _raw_time_grid over one machine's row segment
# ----------------------------------------------------------------------


def _effective_threads_rows(g: np.ndarray, machine, ns, nsf) -> np.ndarray:
    """Row-wise :meth:`PerformanceModel._effective_threads_grid`."""
    amdahl = nsf / (1.0 + g["serial_fraction"] * (nsf - 1.0))
    imbalance = np.maximum(0.5, 1.0 - g["imbalance_coeff"] * np.log2(nsf))
    # Both machine efficiency variants are pure; select per row.
    eff = np.where(
        g["numa_sensitive"],
        machine.parallel_efficiency_grid(ns, numa_sensitive=True),
        machine.parallel_efficiency_grid(ns, numa_sensitive=False),
    )
    res = amdahl * imbalance * eff
    return np.where(ns == 1, 1.0, res)


def _communication_bytes_rows(g: np.ndarray, machine, ns, nsf) -> np.ndarray:
    """Row-wise :meth:`PerformanceModel._communication_bytes_grid`."""
    ref = machine.n_cores
    neighbour = g["neighbour_op_bytes"] * (nsf / ref) ** (2.0 / 3.0)
    if machine.topology.numa_regions > 1:
        numa_factor = np.where(ns > machine.topology.cores_per_numa, 1.25, 1.0)
    else:
        numa_factor = 1.0
    alltoall = g["alltoall_op_bytes"] * numa_factor
    return np.where(ns == 1, 0.0, neighbour + alltoall)


def _latency_time_rows(g: np.ndarray, machine, ns, nsf, spill) -> np.ndarray:
    """Row-wise :meth:`PerformanceModel._latency_time_grid`.

    Rows whose family has no unhidden random accesses produce exact
    ``+0.0`` through the arithmetic itself (``frac * 0.0 / positive``),
    matching the scalar path's early return; the final ``where`` keeps
    that explicit.
    """
    sharp = machine.memory.saturation_sharpness
    ghz = machine.clock_ghz
    mid = machine.cache(2) if machine.cache(3) is not None else None
    llc = machine.last_level_cache

    spill_floor = 0.02 * spill + (1.0 - spill) * 0.0
    frac_dram = np.maximum(1.0 - g["fit_llc"], spill_floor)
    frac_llc = np.maximum(0.0, 1.0 - g["fit_mid"] - frac_dram)
    frac_mid = np.maximum(0.0, 1.0 - frac_llc - frac_dram)

    lat_total = g["lat_total"]
    mlp = g["mlp"]
    time_rows = np.zeros(ns.shape, dtype=np.float64)
    if mid is not None:
        lat_s = mid.latency_cycles / ghz * 1e-9
        demand = nsf * mlp / lat_s
        sharers = machine.cores_sharing(mid)
        instances = -(-ns // sharers)
        cap = instances * machine.clock_hz / 3.0
        time_rows = time_rows + frac_mid * lat_total / smoothmin_grid(
            demand, cap, sharp
        )
    lat_s = llc.latency_cycles / ghz * 1e-9
    demand = nsf * mlp / lat_s
    time_rows = time_rows + frac_llc * lat_total / smoothmin_grid(
        demand, g["cap_llc"], sharp
    )
    lat_s = machine.memory.idle_latency_ns * 1e-9
    demand = nsf * mlp / lat_s
    time_rows = time_rows + frac_dram * lat_total / smoothmin_grid(
        demand, g["cap_dram"], sharp
    )
    return np.where(lat_total > 0.0, time_rows, 0.0)


def _eval_segment(machine, g: np.ndarray):
    """``_raw_time_grid``'s four cost terms over one machine's rows."""
    ns = g["n"]
    nsf = ns.astype(np.float64)

    cache_bytes = machine.effective_cache_bytes_per_thread_grid(ns) * nsf
    spill = PerformanceModel._spill_fraction_grid(g["ws_bytes"], cache_bytes)

    n_eff = _effective_threads_rows(g, machine, ns, nsf)
    t_compute = g["total_instructions"] / (n_eff * g["rate_per_core"])

    comm_bytes = _communication_bytes_rows(g, machine, ns, nsf)
    stream_bytes = g["total_dram_bytes"] * spill + comm_bytes
    bw_demand = nsf * machine.memory.per_core_stream_bw_gbs
    bw = (
        smoothmin_grid(
            bw_demand,
            g["sus_bw_satq_gbs"],
            machine.memory.saturation_sharpness,
        )
        * 1e9
    )
    t_stream = stream_bytes / bw

    t_latency = _latency_time_rows(g, machine, ns, nsf, spill)
    t_latency = t_latency * g["latency_multiplier"]

    t_sync = g["n_barriers"] * machine.barrier_cost_s_grid(ns)
    return t_compute, t_stream, t_latency, t_sync


# ----------------------------------------------------------------------
# Bulk PCG64 seeding (validated fast path for the measurement noise)
# ----------------------------------------------------------------------

_XSHIFT = np.uint32(16)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK32 = 0xFFFFFFFF


def _hash_const_chain(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Precompute SeedSequence's data-independent hash-constant chain.

    The constants advance per call, never per input, so they are shared
    by every seed in a batch.  Returned as ``(xor_consts, mult_consts)``
    column vectors of shape ``(count, 1)``, so hash ``k`` broadcasts
    against row ``k`` of a ``(count, N)`` word array.
    """
    xors, mults = [], []
    const = init
    for _ in range(count):
        advanced = const * mult & _MASK32
        xors.append(const)
        mults.append(advanced)
        const = advanced
    return (
        np.asarray(xors, dtype=np.uint32)[:, None],
        np.asarray(mults, dtype=np.uint32)[:, None],
    )


def _hashmix(v: np.ndarray, xor_consts: np.ndarray, mult_consts: np.ndarray) -> np.ndarray:
    v = v ^ xor_consts
    v = v * mult_consts  # uint32 wraparound is the algorithm
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y  # uint32 wraparound
    return r ^ (r >> _XSHIFT)


#: 4 pool-fill + 12 pool-mix hashes consume the INIT_A chain; the 8
#: output words consume the INIT_B chain.
_POOL_XOR, _POOL_MULT = _hash_const_chain(_INIT_A, _MULT_A, 16)
#: Source word ``src`` is hashed three times and mixed into the other
#: three pool words, in ascending order: ``(dsts, xor, mult)`` per src.
_MIX_STEPS = tuple(
    (
        [dst for dst in range(4) if dst != src],
        _POOL_XOR[4 + 3 * src : 7 + 3 * src],
        _POOL_MULT[4 + 3 * src : 7 + 3 * src],
    )
    for src in range(4)
)
_OUT_XOR, _OUT_MULT = _hash_const_chain(_INIT_B, _MULT_B, 8)
_OUT_SRC = [k % 4 for k in range(8)]


def _pcg64_states(seeds: np.ndarray) -> list[dict]:
    """Vectorised ``np.random.default_rng(seed).bit_generator.state``.

    Replicates NumPy's SeedSequence entropy-pool mixing over a ``(4, N)``
    pool (each source word's three hashes and mixes are one broadcast
    step) and PCG64's ``inc``/``state`` initialisation.  Each returned
    dict is exactly what ``default_rng(seed)`` installs, ready to assign
    to a ``PCG64.state``.  Only used after :func:`fastpath_available`
    has verified that equality on probe seeds in this NumPy build.
    """
    arr = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, arr.shape[0]), dtype=np.uint32)
    pool[0] = arr & np.uint64(_MASK32)
    pool[1] = arr >> np.uint64(32)
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for src, (dsts, xor, mult) in enumerate(_MIX_STEPS):
        pool[dsts] = _mix(pool[dsts], _hashmix(pool[src], xor, mult))
    out = _hashmix(pool[_OUT_SRC], _OUT_XOR, _OUT_MULT).astype(np.uint64)
    w0, w1, w2, w3 = (out[0::2] | (out[1::2] << np.uint64(32))).tolist()

    states = []
    for a, b, c, d in zip(w0, w1, w2, w3):
        inc = ((((c << 64) | d) << 1) | 1) & _MASK128
        state = ((inc + ((a << 64) | b)) * _PCG_MULT + inc) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


_fastpath_lock = threading.Lock()
_FASTPATH_OK: bool | None = None
_FAST_NEW_OK: bool | None = None
_PROBE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0x9E3779B97F4A7C15)

_OSA = object.__setattr__  # frozen-dataclass bypass, as dataclasses itself uses


def _fast_new_available() -> bool:
    """Whether result records can be built by instance-dict assignment.

    Frozen dataclasses pay one ``object.__setattr__`` per field in
    ``__init__`` plus argument parsing; for the planner's thousands of
    identical-shape records that is a large share of total runtime.
    ``cls.__new__`` plus a wholesale ``__dict__`` assignment (through
    ``object.__setattr__``, the same bypass ``dataclasses`` uses for
    frozen instances) produces an indistinguishable instance -- same
    class, same fields, same equality/hash/repr -- at roughly half the
    cost.  Probed once against the real constructor and abandoned
    permanently if the dataclasses ever grow ``__slots__`` or trap the
    bypass.
    """
    global _FAST_NEW_OK
    with _fastpath_lock:
        if _FAST_NEW_OK is None:
            try:
                probe = RunSample.__new__(RunSample)
                _OSA(probe, "__dict__", {"run_index": 0, "time_s": 1.0, "mops": 2.0})
                _FAST_NEW_OK = probe == RunSample(run_index=0, time_s=1.0, mops=2.0)
            except (AttributeError, TypeError):
                _FAST_NEW_OK = False
        return _FAST_NEW_OK


def fastpath_available() -> bool:
    """Whether bulk PCG64 seeding matches NumPy on this build (memoised).

    Probes :func:`_pcg64_states` against the states
    ``np.random.default_rng(seed)`` actually installs.  A mismatch (a
    future NumPy changing its seeding) permanently selects the
    per-config ``default_rng`` fallback -- slower, still bit-identical.
    """
    global _FASTPATH_OK
    with _fastpath_lock:
        if _FASTPATH_OK is None:
            try:
                derived = _pcg64_states(np.asarray(_PROBE_SEEDS, dtype=np.uint64))
                _FASTPATH_OK = all(
                    d == np.random.default_rng(s).bit_generator.state
                    for s, d in zip(_PROBE_SEEDS, derived)
                )
            except (KeyError, TypeError, ValueError, OverflowError):
                _FASTPATH_OK = False
        return _FASTPATH_OK


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------


def _family_plans(runner, groups) -> list[_FamilyPlan]:
    """Resolve per-family objects and verdicts; refuse what the flat
    pass cannot reproduce (invalid thread counts must raise from
    ``predict_batch`` on the per-family path, with its counter order)."""
    from repro.npb.signatures import signature_for

    fams = []
    for group in groups:
        head = group[0]
        machine = get_machine(head.machine)
        sig = signature_for(head.kernel, head.npb_class)
        compiler_name = head.resolved_compiler()
        for config in group:
            try:
                machine.validate_thread_count(config.n_threads)
            except ValueError as exc:
                raise PlanNotApplicable(str(exc)) from exc
        fam = _FamilyPlan(
            group=group,
            machine=machine,
            sig=sig,
            compiler_name=compiler_name,
            compiler=get_compiler(compiler_name),
            vectorise=head.vectorise,
        )
        if not machine.memory.fits(int(sig.working_set_bytes)):
            fam.dnr = DNRError(
                f"{sig.display} class {sig.npb_class} needs "
                f"{sig.working_set_bytes / 2**30:.2f} GiB but "
                f"{machine.label} has only "
                f"{machine.memory.capacity_bytes / 2**30:.0f} GiB DRAM"
            )
        fams.append(fam)
    return fams


def _anchor_plans(model, fams) -> tuple[list[_FamilyPlan], dict]:
    """Single-thread anchor rows for not-yet-memoised calibration keys.

    Returns the extra families to evaluate plus a ``key -> plan-or-None``
    map (``None`` marks anchor-less pairs, memoised as ``(1.0, 1.0)``
    exactly like ``calibration_factors``).
    """
    from repro.npb.signatures import signature_for

    anchor_fams: list[_FamilyPlan] = []
    needed: dict[tuple[str, str], _FamilyPlan | None] = {}
    for fam in fams:
        if fam.dnr is not None:
            continue
        key = (fam.machine.name, fam.sig.name)
        if key in model._kappa_cache or key in needed:
            continue
        anchor = anchor_for(*key)
        if anchor is None:
            needed[key] = None
            continue
        compiler_name = default_compiler_for(fam.machine.name)
        plan = _FamilyPlan(
            group=[],
            machine=fam.machine,
            sig=signature_for(fam.sig.name, anchor.npb_class),
            compiler_name=compiler_name,
            compiler=get_compiler(compiler_name),
            vectorise=anchor.vectorise,
            anchor=anchor,
        )
        needed[key] = plan
        anchor_fams.append(plan)
    return anchor_fams, needed


def _family_scalars(fam: _FamilyPlan) -> tuple:
    """One family's per-family quantities, mirroring the scalar setup at
    the top of ``_raw_time_grid``; ordered as the non-``n`` GRID_DTYPE
    fields.  Also resolves the family's vectorisation verdict and notes."""
    sig = fam.sig
    machine = fam.machine
    outcome = vectorisation_outcome(
        fam.compiler,
        machine.core.vector,
        sig.name,
        sig.vec_fraction,
        fam.vectorise,
        gather_pathology=sig.gather_pathology,
    )
    notes = []
    if fam.vectorise and not outcome.legal and machine.core.has_vector:
        notes.append(
            f"{fam.compiler.display} cannot target "
            f"{machine.core.vector.standard.value}; scalar code emitted"
        )
    fam.notes = tuple(notes)
    fam.vectorised = outcome.applied

    satq = fam.compiler.saturation_quality_for(sig.name)
    target_bytes = sig.effective_random_target_bytes
    mid = machine.cache(2) if machine.cache(3) is not None else None
    llc = machine.last_level_cache
    fit_mid = 0.0
    if mid is not None:
        fit_mid = 0.98 * min(1.0, mid.size_bytes / target_bytes)
    llc_agg = llc.size_bytes * (machine.n_cores // machine.cores_sharing(llc))
    fit_llc = max(fit_mid, 0.98 * min(1.0, llc_agg / target_bytes))

    return (
        sig.working_set_bytes,
        sig.total_instructions,
        sig.total_dram_bytes,
        sig.comm.neighbour_bytes * sig.total_ops,
        sig.comm.alltoall_bytes * sig.total_ops,
        sig.comm.barriers_per_mop * sig.total_mops,
        machine.scalar_rate_per_core()
        * fam.compiler.scalar_quality_for(sig.name)
        * outcome.compute_multiplier,
        sig.serial_fraction,
        sig.imbalance_coeff,
        sig.dram_bytes_per_op > 0.3,
        machine.memory.sustained_bw_gbs * satq,
        sig.total_random_accesses * (1.0 - sig.latency_hidden_fraction),
        machine.memory.core_mlp * sig.gather_mlp_factor,
        fit_mid,
        fit_llc,
        machine.memory.random_rate_cap() * machine.memory.llc_random_boost * satq,
        machine.memory.random_rate_cap() * satq,
        outcome.latency_multiplier,
    )


def _build(cls, rows: list[dict], fast_new: bool) -> list:
    """Frozen-dataclass records of ``cls`` from their field maps, in order.

    With ``fast_new`` (see :func:`_fast_new_available`) each instance
    dict is assigned wholesale; otherwise the real constructor runs.
    """
    if not fast_new:
        return [cls(**fields) for fields in rows]
    new = cls.__new__
    records = []
    for fields in rows:
        record = new(cls)
        _OSA(record, "__dict__", fields)
        records.append(record)
    return records


def _measure_batch(runner, fams, t_compute, t_stream, t_latency, t_sync) -> list:
    """Predictions and ``ExperimentRunner._measure`` for every live family.

    One pass over the whole batch instead of one per family: the live
    request rows are gathered in family order, every prediction term and
    every run's time and Mop/s is one vectorised operation over the
    batch, and each record type is built in one flat pass.  Each operation
    is elementwise the per-family path's (per-row ``alpha``/``kappa``/
    ``total_mops`` columns stand in for its per-family scalars), and
    each config still draws its ``lognormal`` factors from its own
    seeded stream, so every number is bit-identical.
    """
    model = runner.model
    live = [fam for fam in fams if fam.dnr is None]
    configs: list[ExperimentConfig] = []
    row_fams: list[_FamilyPlan] = []
    seeds: list[int] = []
    alphas: list[float] = []
    kappas: list[float] = []
    for fam in live:
        if model.calibrate:
            alpha, kappa = model._calibration_factors(fam.machine, fam.sig)
        else:
            alpha, kappa = 1.0, 1.0
        alphas.append(alpha)
        kappas.append(kappa)
        fam.calibration_factor = alpha * kappa
        for config in fam.group:
            configs.append(config)
            row_fams.append(fam)
            seeds.append(measurement_seed(runner.seed, config, fam.compiler_name))
    if not configs:
        return [fam.dnr for fam in fams]

    lengths = np.asarray([len(fam.group) for fam in live], dtype=np.int64)
    starts = np.asarray([fam.rows.start for fam in live], dtype=np.int64)
    # Each live family's request rows are contiguous in the machine-major
    # megagrid; gather them in family (= batch) order.
    offsets = starts - (np.cumsum(lengths) - lengths)
    rows = np.arange(len(configs)) + np.repeat(offsets, lengths)
    alpha = np.repeat(np.asarray(alphas, dtype=np.float64), lengths)
    kappa = np.repeat(np.asarray(kappas, dtype=np.float64), lengths)
    total_mops = np.repeat(
        np.asarray([fam.sig.total_mops for fam in live], dtype=np.float64), lengths
    )
    t_comp = t_compute[rows] * alpha
    t_str = t_stream[rows]
    t_lat = t_latency[rows]
    t_syn = t_sync[rows]
    time_s = (np.maximum(t_comp, t_str) + t_lat + t_syn) * kappa
    time_list = time_s.tolist()
    mops_list = (total_mops / time_s).tolist()
    t_comp_k = (t_comp * kappa).tolist()
    t_stream_k = (t_str * kappa).tolist()
    t_latency_k = (t_lat * kappa).tolist()
    t_sync_k = (t_syn * kappa).tolist()

    # Noise: cv once per distinct thread count (np.log2 on int64, as the
    # per-family path computed it), then one lognormal draw per config
    # from its own stream, in batch order.
    thread_counts = [config.n_threads for config in configs]
    distinct = sorted(set(thread_counts))
    distinct_ns = np.asarray(distinct, dtype=np.int64)
    cvs = runner.noise_cv * (1.0 + 0.3 * np.log2(distinct_ns + 1))
    cv_of = dict(zip(distinct, cvs.tolist()))
    runs = [config.runs for config in configs]
    if fastpath_available():
        gen = np.random.Generator(np.random.PCG64(0))
        bit_generator = gen.bit_generator
        draws = []
        for state, n, size in zip(
            _pcg64_states(np.asarray(seeds, dtype=np.uint64)), thread_counts, runs
        ):
            bit_generator.state = state
            draws.append(gen.lognormal(mean=0.0, sigma=cv_of[n], size=size))
    else:
        draws = [
            np.random.default_rng(seed).lognormal(mean=0.0, sigma=cv_of[n], size=size)
            for seed, n, size in zip(seeds, thread_counts, runs)
        ]
    runs_arr = np.asarray(runs, dtype=np.int64)
    run_times = np.repeat(time_s, runs_arr) * np.concatenate(draws)
    run_mops = (np.repeat(total_mops, runs_arr) / run_times).tolist()
    run_times = run_times.tolist()

    fast_new = _fast_new_available()
    samples = _build(
        RunSample,
        [
            {"run_index": j, "time_s": t, "mops": m}
            for j, t, m in zip(
                (j for size in runs for j in range(size)), run_times, run_mops
            )
        ],
        fast_new,
    )
    preds = _build(
        Prediction,
        [
            {
                "machine": fam.machine.name,
                "kernel": fam.sig.name,
                "npb_class": fam.sig.npb_class,
                "n_threads": config.n_threads,
                "time_s": time_list[i],
                "mops": mops_list[i],
                "t_compute": t_comp_k[i],
                "t_stream": t_stream_k[i],
                "t_latency": t_latency_k[i],
                "t_sync": t_sync_k[i],
                "vectorised": fam.vectorised,
                "calibration_factor": fam.calibration_factor,
                "notes": fam.notes,
            }
            for i, (config, fam) in enumerate(zip(configs, row_fams))
        ],
        fast_new,
    )
    # samples per config are never empty (runs >= 1), so ExperimentResult's
    # __post_init__ validation is vacuous on the fast path.
    results = _build(
        ExperimentResult,
        [
            {
                "machine": config.machine,
                "kernel": config.kernel,
                "npb_class": config.npb_class,
                "n_threads": config.n_threads,
                "compiler": fam.compiler_name,
                "vectorised": pred.vectorised,
                "samples": tuple(samples[end - config.runs : end]),
                "prediction": pred,
                "notes": pred.notes,
            }
            for config, fam, pred, end in zip(configs, row_fams, preds, accumulate(runs))
        ],
        fast_new,
    )

    flat = iter(results)
    return [
        fam.dnr if fam.dnr is not None else list(islice(flat, len(fam.group)))
        for fam in fams
    ]


def plan_groups(
    runner: ExperimentRunner, groups: list[list[ExperimentConfig]]
) -> list[DNRError | list[ExperimentResult]]:
    """Evaluate many thread-sweep families as one flat megagrid pass.

    Returns one outcome per input group, in order: the family's shared
    :class:`DNRError` verdict, or its :class:`ExperimentResult` list
    (bit-identical to ``runner.run_many(group)``).  Raises
    :class:`PlanNotApplicable` -- before doing any work -- when the batch
    cannot be reproduced exactly by the flat pass.

    Side-effect free apart from memoising calibration factors in the
    model's ``_kappa_cache`` (the same values, under the same keys, the
    per-family path memoises).
    """
    if type(runner) is not ExperimentRunner:
        raise PlanNotApplicable(f"runner subclass {type(runner).__name__}")
    model = runner.model
    if type(model) is not PerformanceModel:
        raise PlanNotApplicable(f"model subclass {type(model).__name__}")
    if not groups:
        return []

    fams = _family_plans(runner, groups)
    if model.calibrate:
        anchor_fams, needed = _anchor_plans(model, fams)
    else:
        anchor_fams, needed = [], {}

    # Machine-major layout: every family (requests, then anchor rows) of
    # one machine occupies a contiguous segment evaluated in one pass.
    by_machine: dict[str, list[_FamilyPlan]] = {}
    order: list[str] = []
    for fam in fams + anchor_fams:
        if fam.dnr is not None:
            continue
        if fam.machine.name not in by_machine:
            order.append(fam.machine.name)
        by_machine.setdefault(fam.machine.name, []).append(fam)

    # Column-wise megagrid assembly: per-family scalars are repeated over
    # each family's row count in one vectorised pass per field.
    scalar_rows: list[tuple] = []
    lengths: list[int] = []
    flat_n: list[int] = []
    segments: list[tuple[object, slice]] = []
    pos = 0
    for name in order:
        seg_start = pos
        for fam in by_machine[name]:
            thread_counts = [c.n_threads for c in fam.group] or [1]
            stop = pos + len(thread_counts)
            fam.rows = slice(pos, stop)
            scalar_rows.append(_family_scalars(fam))
            lengths.append(len(thread_counts))
            flat_n.extend(thread_counts)
            pos = stop
        segments.append((get_machine(name), slice(seg_start, pos)))

    n_rows = pos
    grid = np.empty(n_rows, dtype=GRID_DTYPE)
    grid["n"] = np.asarray(flat_n, dtype=np.int64)
    lengths_arr = np.asarray(lengths, dtype=np.int64)
    columns = list(zip(*scalar_rows))
    for field_name, column in zip(list(GRID_DTYPE.names)[1:], columns):
        grid[field_name] = np.repeat(np.asarray(column), lengths_arr)

    t_compute = np.zeros(n_rows, dtype=np.float64)
    t_stream = np.zeros(n_rows, dtype=np.float64)
    t_latency = np.zeros(n_rows, dtype=np.float64)
    t_sync = np.zeros(n_rows, dtype=np.float64)
    for machine, seg in segments:
        comp, stream, lat, sync = _eval_segment(machine, grid[seg])
        t_compute[seg] = comp
        t_stream[seg] = stream
        t_latency[seg] = lat
        t_sync[seg] = sync

    # Calibration: convert anchor rows through the shared factor logic and
    # memoise -- after this, every request family's factor lookup hits.
    for key, anchor_fam in needed.items():
        if anchor_fam is None:
            factors = (1.0, 1.0)
        else:
            i = anchor_fam.rows.start
            raw = {
                "total": float(
                    np.maximum(t_compute[i], t_stream[i]) + t_latency[i] + t_sync[i]
                ),
                "compute": float(t_compute[i]),
                "stream": float(t_stream[i]),
                "latency": float(t_latency[i]),
                "sync": float(t_sync[i]),
            }
            factors = factors_from_raw(anchor_fam.sig, anchor_fam.anchor, raw)
        model._kappa_cache[key] = factors

    return _measure_batch(runner, fams, t_compute, t_stream, t_latency, t_sync)
