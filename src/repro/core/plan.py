"""The grid planner: every cold batch as one flattened evaluation.

This is the only route from configurations to results: the sweep
engine's cold batches and :meth:`ExperimentRunner.run_many` (hence
``run``) all execute through :func:`plan_groups`.  It flattens every
thread-sweep family of a batch into one structured-array **megagrid**
(one row per config, per-family columns broadcast across each family's
row slice), evaluates the model's four cost terms in one pass per
machine segment, and derives every config's measurement-noise PCG64
stream in bulk.  Everything after the cost terms -- calibration scaling,
noise magnitudes, the per-run times and Mop/s, and the result records --
is one batch-wide tail (:func:`_measure_batch`) over all live request
rows, not a loop over families.

Exactness contract: every prediction is **bit-identical** to
:meth:`PerformanceModel.predict`, and every run sample to a per-config
``np.random.default_rng(measurement_seed(...)).lognormal`` draw around
it.  That falls out of three properties:

* the cost terms come from the model's one row-wise evaluator
  (:func:`repro.core.perfmodel._eval_segment` over
  :func:`repro.core.perfmodel._family_scalars` columns) and are scaled by
  the :func:`repro.core.perfmodel._scaled_terms` that ``predict_batch``
  also uses; every operation is elementwise, so a row's value does not
  depend on the block it is evaluated in;
* calibration anchors are evaluated as extra single-thread rows of the
  same megagrid and converted through the shared
  :func:`repro.core.calibration.factors_from_raw`;
* the noise streams are seeded per config (sha256 of the config key via
  :func:`repro.core.experiment.measurement_seed`); the bulk PCG64 state
  derivation below is validated against ``np.random.default_rng`` at
  first use and falls back to per-config construction if NumPy's seeding
  ever changes.

The planner is deliberately side-effect free: no :mod:`repro.obs`
counters or spans, no store writes, no engine-cache mutation.  The
caller (``SweepEngine._execute_groups``) commits results and telemetry
per family.  Every thread count is validated before any row is
evaluated, so an invalid one raises ``ValueError`` with nothing
computed or committed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from repro.compilers.gcc import get_compiler
from repro.machines.catalog import get_machine

from .calibration import anchor_config, factors_from_raw
from .experiment import ExperimentConfig, ExperimentRunner, measurement_seed
from .perfmodel import (
    DNRError,
    Prediction,
    _dnr_error,
    _eval_segment,
    _family_scalars,
    _row_block,
    _scaled_terms,
)
from .results import ExperimentResult, RunSample

__all__ = [
    "plan_groups",
    "fastpath_available",
]


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
    """Resolve per-family objects and verdicts, validating every thread
    count first (``Machine.validate_thread_count``'s ``ValueError``)."""
    from repro.npb.signatures import signature_for

    fams = []
    for group in groups:
        head = group[0]
        machine = get_machine(head.machine)
        sig = signature_for(head.kernel, head.npb_class)
        compiler_name = head.resolved_compiler()
        for config in group:
            machine.validate_thread_count(config.n_threads)
        fams.append(
            _FamilyPlan(
                group=group,
                machine=machine,
                sig=sig,
                compiler_name=compiler_name,
                compiler=get_compiler(compiler_name),
                vectorise=head.vectorise,
                dnr=_dnr_error(machine, sig),
            )
        )
    return fams


def _anchor_plans(model, fams) -> tuple[list[_FamilyPlan], dict]:
    """Single-thread anchor rows for not-yet-memoised calibration keys.

    Returns the extra families to evaluate plus a ``key -> plan-or-None``
    map (``None`` marks anchor-less pairs, memoised as ``(1.0, 1.0)``
    exactly like ``calibration_factors``).
    """
    anchor_fams: list[_FamilyPlan] = []
    needed: dict[tuple[str, str], _FamilyPlan | None] = {}
    for fam in fams:
        if fam.dnr is not None:
            continue
        key = (fam.machine.name, fam.sig.name)
        if key in model._kappa_cache or key in needed:
            continue
        config = anchor_config(*key)
        if config is None:
            needed[key] = None
            continue
        anchor, sig, compiler_name = config
        plan = _FamilyPlan(
            group=[],
            machine=fam.machine,
            sig=sig,
            compiler_name=compiler_name,
            compiler=get_compiler(compiler_name),
            vectorise=anchor.vectorise,
            anchor=anchor,
        )
        needed[key] = plan
        anchor_fams.append(plan)
    return anchor_fams, needed


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
    """Predictions and seeded measurements for every live family.

    One pass over the whole batch instead of one per family: the live
    request rows are gathered in family order, every prediction term and
    every run's time and Mop/s is one vectorised operation over the
    batch, and each record type is built in one flat pass.  Each operation
    is elementwise ``predict_batch``'s (per-row ``alpha``/``kappa``/
    ``total_mops`` columns stand in for its per-signature scalars), and
    each config draws its ``lognormal`` factors from its own seeded
    stream, so every number is bit-identical to a config run alone.
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
    time_s, mops, t_comp, t_str, t_lat, t_syn = _scaled_terms(
        t_compute[rows], t_stream[rows], t_latency[rows], t_sync[rows],
        alpha, kappa, total_mops,
    )
    time_list = time_s.tolist()
    mops_list = mops.tolist()
    t_comp_k = t_comp.tolist()
    t_stream_k = t_str.tolist()
    t_latency_k = t_lat.tolist()
    t_sync_k = t_syn.tolist()

    # Noise: cv once per distinct thread count (np.log2 on int64), then
    # one lognormal draw per config from its own stream, in batch order.
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
    :class:`DNRError` verdict, or its :class:`ExperimentResult` list in
    config order.  Raises ``ValueError`` -- before evaluating anything --
    when a thread count is out of range for its machine.

    Side-effect free apart from memoising calibration factors in the
    model's ``_kappa_cache`` (the values, under the keys, that
    ``PerformanceModel._calibration_factors`` memoises).
    """
    if not groups:
        return []
    model = runner.model
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

    # Megagrid assembly: each family's columns repeated over its rows.
    columns: list[tuple] = []
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
            family, fam.vectorised, fam.notes = _family_scalars(
                fam.machine, fam.sig, fam.compiler, fam.vectorise
            )
            columns.append(family)
            lengths.append(len(thread_counts))
            flat_n.extend(thread_counts)
            pos = stop
        segments.append((get_machine(name), slice(seg_start, pos)))

    grid = _row_block(columns, lengths, flat_n)
    n_rows = pos
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
            factors = factors_from_raw(
                anchor_fam.sig,
                anchor_fam.anchor,
                float(t_compute[i]),
                float(t_stream[i]),
                float(t_latency[i]),
                float(t_sync[i]),
            )
        model._kappa_cache[key] = factors

    return _measure_batch(runner, fams, t_compute, t_stream, t_latency, t_sync)
