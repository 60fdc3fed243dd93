"""The grid planner: every cold batch as one evaluation pass.

This is the only route from configurations to results: the sweep
engine's cold batches and :meth:`ExperimentRunner.run_many` (hence
``run``) all execute through :func:`plan_groups`.  It lays every
thread-sweep family of a batch, whatever its machine, into one block
(:class:`repro.core.perfmodel._BlockBuilder`: one row per config, in
batch order, then one row per calibration anchor; the rows carry their
machine's quantities as columns), evaluates the model's four cost terms
over the whole block in one pass, and derives every config's
measurement-noise PCG64 stream in bulk.  Everything after the cost
terms -- calibration scaling, noise magnitudes, the per-run times and
Mop/s, and the result records -- is one batch-wide tail
(:func:`_measure_batch`) over all live request rows, not a loop over
families.

Exactness contract: every prediction is **bit-identical** to
:meth:`PerformanceModel.predict`, and every run sample to a per-config
``np.random.default_rng(measurement_seed(...)).lognormal`` draw around
it.  That falls out of three properties:

* the cost terms come from the model's one row-wise evaluator
  (:func:`repro.core.perfmodel._eval_block`) and are scaled by the
  :func:`repro.core.perfmodel._scaled_terms` that ``predict_batch`` also
  uses; every operation is elementwise, so a row's value does not depend
  on the block, or the other machines' rows, it is evaluated with;
* calibration anchors are evaluated as extra single-thread rows of the
  same block and converted through the shared
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

import ctypes
import threading
from collections import deque
from itertools import accumulate, chain, islice, repeat

import numpy as np

from repro.compilers.gcc import get_compiler
from repro.machines.catalog import get_machine

from .calibration import anchor_config, factors_from_raw
from .experiment import ExperimentConfig, ExperimentRunner, family_seed_bytes
from .perfmodel import (
    DNRError,
    Prediction,
    _BlockBuilder,
    _dnr_error,
    _eval_block,
    _scaled_terms,
)
from .results import ExperimentResult, RunSample

__all__ = [
    "plan_groups",
    "fastpath_available",
]


class _FamilyPlan:
    """One thread-sweep family of the batch: its resolved objects, its
    DNR verdict, and what its block rows say about the generated code."""

    __slots__ = (
        "group", "ns", "machine", "sig", "compiler_name", "compiler", "dnr",
        "vectorised", "notes",
    )

    def __init__(self, group, machine, sig, compiler_name) -> None:
        self.group = group
        self.ns = [config.n_threads for config in group]
        self.machine = machine
        self.sig = sig
        self.compiler_name = compiler_name
        self.compiler = get_compiler(compiler_name)
        self.dnr = _dnr_error(machine, sig)
        self.vectorised = False
        self.notes: tuple[str, ...] = ()


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
_MASK32 = 0xFFFFFFFF
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
#: PCG64's 128-bit multiplier, as 64-bit words and the low word's limbs.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO_LIMBS = (np.uint64(0x9FCCF645), np.uint64(0x4385DF64))


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
        np.asarray([dst for dst in range(4) if dst != src]),
        _POOL_XOR[4 + 3 * src : 7 + 3 * src],
        _POOL_MULT[4 + 3 * src : 7 + 3 * src],
    )
    for src in range(4)
)
_OUT_XOR, _OUT_MULT = _hash_const_chain(_INIT_B, _MULT_B, 8)
_OUT_SRC = np.asarray([k % 4 for k in range(8)])


def _mulhi64(x: np.ndarray, k0: np.uint64, k1: np.uint64) -> np.ndarray:
    """High 64 bits of each ``x * k`` (uint64 times the 64-bit constant
    with 32-bit limbs ``k1:k0``), from 32-bit limbs."""
    x0, x1 = x & _LOW32, x >> _SHIFT32
    p00, p01, p10 = x0 * k0, x0 * k1, x1 * k0
    mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    return x1 * k1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """Vectorised ``np.random.default_rng(seed)`` PCG64 states, as words.

    Replicates NumPy's SeedSequence entropy-pool mixing over a ``(4, N)``
    pool (each source word's three hashes and mixes are one broadcast
    step) and PCG64's ``inc``/``state`` initialisation in 128-bit
    arithmetic on 64-bit word pairs.  Row ``i`` of the returned C-ordered
    ``(N, 4)`` uint64 array is seed ``i``'s ``(state_lo, state_hi,
    inc_lo, inc_hi)`` -- the 32 bytes of a PCG64 state in memory, which
    :func:`_state_address` locates.  Only used after
    :func:`fastpath_available` has verified the installed states (and a
    draw) against ``default_rng`` on probe seeds in this NumPy build.
    """
    arr = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, arr.shape[0]), dtype=np.uint32)
    pool[0] = arr & _LOW32
    pool[1] = arr >> _SHIFT32
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for src, (dsts, xor, mult) in enumerate(_MIX_STEPS):
        pool[dsts] = _mix(pool.take(dsts, axis=0), _hashmix(pool[src], xor, mult))
    out = _hashmix(pool.take(_OUT_SRC, axis=0), _OUT_XOR, _OUT_MULT).astype(np.uint64)
    # The seed words: initstate = (a << 64) | b, initseq = (c << 64) | d.
    a, b, c, d = out[0::2] | (out[1::2] << _SHIFT32)

    # inc = (initseq << 1) | 1; state = (inc + initstate) * MULT + inc.
    one = np.uint64(1)
    inc_lo = (d << one) | one
    inc_hi = (c << one) | (d >> np.uint64(63))
    lo = inc_lo + b
    hi = inc_hi + a + (lo < inc_lo)
    hi = lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + _mulhi64(lo, *_PCG_MULT_LO_LIMBS)
    lo = lo * _PCG_MULT_LO
    state_lo = lo + inc_lo
    state_hi = hi + inc_hi + (state_lo < lo)
    # C order and uint64 are what the 32-byte row copies rely on.
    return np.ascontiguousarray(
        np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1), dtype=np.uint64
    )


def _state_address(bit_generator: np.random.PCG64) -> int:
    """Where ``bit_generator`` keeps its 32-byte state.

    Copying one row of :func:`_pcg64_words` there with
    ``ctypes.memmove(address, row_address, 32)`` installs that state --
    what assigning its ``state`` dict does, minus building and parsing
    the dict.
    """
    return ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value


#: Up to this many configs, seeding each stream with ``default_rng``
#: (about 9 us apiece) beats the bulk derivation (a fixed ~90 us, then
#: ~1.3 us apiece, measured in whole cold queries); both install the
#: same states.
_BULK_SEEDING_MIN = 12

_fastpath_lock = threading.Lock()
_FASTPATH_OK: bool | None = None
_FAST_BUILD_OK: bool | None = None
_PROBE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0x9E3779B97F4A7C15)

_OSA = object.__setattr__  # frozen-dataclass bypass, as dataclasses itself uses


def _fast_build_available() -> bool:
    """Whether result records can be built without their constructors.

    Frozen dataclasses pay one ``object.__setattr__`` per field in
    ``__init__`` plus argument parsing; for the planner's thousands of
    identical-shape records that is a large share of total runtime.
    ``cls.__new__`` plus a wholesale ``__dict__`` assignment (through
    ``object.__setattr__``, the same bypass ``dataclasses`` uses for
    frozen instances) produces an indistinguishable instance -- same
    class, same fields, same equality/hash/repr -- at roughly half the
    cost.  The three-field :class:`RunSample` is slotted instead: each of
    its fields is set through its slot descriptor, a whole column per
    C-level ``map``.  Probed once against the real constructors and
    abandoned permanently if the classes ever change shape.
    """
    global _FAST_BUILD_OK
    with _fastpath_lock:
        if _FAST_BUILD_OK is None:
            try:
                sample = RunSample.__new__(RunSample)
                for name, value in (("run_index", 0), ("time_s", 1.0), ("mops", 2.0)):
                    getattr(RunSample, name).__set__(sample, value)
                pred = Prediction.__new__(Prediction)
                _OSA(pred, "__dict__", dict(_PROBE_PREDICTION))
                _FAST_BUILD_OK = (
                    sample == RunSample(run_index=0, time_s=1.0, mops=2.0)
                    and pred == Prediction(**_PROBE_PREDICTION)
                )
            except (AttributeError, TypeError):
                _FAST_BUILD_OK = False
        return _FAST_BUILD_OK


_PROBE_PREDICTION = {
    "machine": "m",
    "kernel": "k",
    "npb_class": "S",
    "n_threads": 1,
    "time_s": 1.0,
    "mops": 2.0,
    "t_compute": 0.5,
    "t_stream": 0.25,
    "t_latency": 0.125,
    "t_sync": 0.0,
    "vectorised": True,
    "calibration_factor": 1.0,
    "notes": (),
}


def _records(cls, rows: list[dict]) -> list:
    """Instances of frozen dataclass ``cls`` with ``rows`` as their fields."""
    if not _fast_build_available():
        return [cls(**fields) for fields in rows]
    records = list(map(cls.__new__, repeat(cls, len(rows))))
    deque(map(_OSA, records, repeat("__dict__"), rows), maxlen=0)
    return records


def _samples(run_index, time_s, mops) -> list:
    """:class:`RunSample` instances from one list per field."""
    if not _fast_build_available():
        return list(map(RunSample, run_index, time_s, mops))
    records = list(map(RunSample.__new__, repeat(RunSample, len(time_s))))
    for name, values in (("run_index", run_index), ("time_s", time_s), ("mops", mops)):
        deque(map(getattr(RunSample, name).__set__, records, values), maxlen=0)
    return records


def fastpath_available() -> bool:
    """Whether bulk PCG64 seeding matches NumPy on this build (memoised).

    Installs :func:`_pcg64_words` states at :func:`_state_address` and
    compares them, and a draw from each, with what
    ``np.random.default_rng(seed)`` installs and draws.  A mismatch (a
    future NumPy changing its seeding or its state layout) permanently
    selects the per-config ``default_rng`` fallback -- slower, still
    bit-identical.
    """
    global _FASTPATH_OK
    with _fastpath_lock:
        if _FASTPATH_OK is None:
            try:
                words = _pcg64_words(np.asarray(_PROBE_SEEDS, dtype=np.uint64))
                gen = np.random.Generator(np.random.PCG64(0))
                target = _state_address(gen.bit_generator)
                ok = True
                for seed, row in zip(_PROBE_SEEDS, words):
                    ctypes.memmove(target, row.ctypes.data, 32)
                    reference = np.random.default_rng(seed)
                    ok = ok and gen.bit_generator.state == reference.bit_generator.state
                    ok = ok and gen.random() == reference.random()
                _FASTPATH_OK = ok
            except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
                _FASTPATH_OK = False
        return _FASTPATH_OK


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------


def _family_plans(groups) -> list[_FamilyPlan]:
    """Resolve per-family objects and verdicts, validating every thread
    count first (``Machine.validate_thread_count``'s ``ValueError``)."""
    from repro.npb.signatures import signature_for

    fams = []
    for group in groups:
        head = group[0]
        machine = get_machine(head.machine)
        n_cores = machine.n_cores
        for config in group:
            if not 1 <= config.n_threads <= n_cores:
                machine.validate_thread_count(config.n_threads)
        fams.append(
            _FamilyPlan(
                group,
                machine,
                signature_for(head.kernel, head.npb_class),
                head.resolved_compiler(),
            )
        )
    return fams


def _add_anchor_rows(model, fams, builder: _BlockBuilder) -> dict:
    """Single-thread anchor rows for not-yet-memoised calibration keys.

    Appends one row per anchored key to ``builder`` and returns a
    ``key -> (row, signature, anchor)`` map, ``None`` marking anchor-less
    pairs, memoised as ``(1.0, 1.0)`` exactly like
    ``calibration_factors``.
    """
    needed: dict[tuple[str, str], tuple | None] = {}
    kappa_cache = model._kappa_cache
    for fam in fams:
        if fam.dnr is not None:
            continue
        key = (fam.machine.name, fam.sig.name)
        if key in kappa_cache or key in needed:
            continue
        config = anchor_config(*key)
        if config is None:
            needed[key] = None
            continue
        anchor, sig, compiler_name = config
        needed[key] = (builder.n_rows, sig, anchor)
        builder.add(fam.machine, sig, get_compiler(compiler_name), anchor.vectorise, (1,))
    return needed


def _measure_batch(runner, fams, t_compute, t_stream, t_latency, t_sync) -> list:
    """Predictions and seeded measurements for every live family.

    The live families' request rows lead the block, in family (= batch)
    order, so the raw terms arrive already gathered.  Every prediction
    term and every run's time and Mop/s is one vectorised operation over
    the batch, and each record type is built in one flat pass.  Each
    operation is elementwise ``predict_batch``'s (per-row ``alpha``/
    ``kappa``/``total_mops`` columns stand in for its per-signature
    scalars), and each config draws its ``lognormal`` factors from its
    own seeded stream, so every number is bit-identical to a config run
    alone.
    """
    model = runner.model
    live = [fam for fam in fams if fam.dnr is None]
    if not live:
        return [fam.dnr for fam in fams]
    lengths = [len(fam.ns) for fam in live]
    factors = [
        model._calibration_factors(fam.machine, fam.sig) if model.calibrate else (1.0, 1.0)
        for fam in live
    ]
    alpha, kappa, total_mops = np.repeat(
        np.asarray(
            [(a, k, fam.sig.total_mops) for (a, k), fam in zip(factors, live)],
            dtype=np.float64,
        ).T,
        lengths,
        axis=1,
    )
    time_s, mops, t_comp, t_str, t_lat, t_syn = _scaled_terms(
        t_compute, t_stream, t_latency, t_sync, alpha, kappa, total_mops
    )

    # Noise: cv once per distinct thread count (np.log2 on int64), then
    # one lognormal draw per config from its own stream, in batch order.
    thread_counts = [n for fam in live for n in fam.ns]
    runs = [config.runs for fam in live for config in fam.group]
    distinct = sorted(set(thread_counts))
    cvs = runner.noise_cv * (1.0 + 0.3 * np.log2(np.asarray(distinct, dtype=np.int64) + 1))
    sigmas = map(dict(zip(distinct, cvs.tolist())).__getitem__, thread_counts)
    seeds = np.frombuffer(
        b"".join(
            family_seed_bytes(runner.seed, fam.group[0], fam.compiler_name, fam.ns)
            for fam in live
        ),
        dtype="<u8",
    )
    if len(seeds) > _BULK_SEEDING_MIN and fastpath_available():
        gen = np.random.Generator(np.random.PCG64(0))
        target = _state_address(gen.bit_generator)
        lognormal, memmove = gen.lognormal, ctypes.memmove
        words = _pcg64_words(seeds)
        start = words.ctypes.data
        draws = []
        for source, sigma, size in zip(range(start, start + words.nbytes, 32), sigmas, runs):
            memmove(target, source, 32)
            draws.append(lognormal(0.0, sigma, size))
    else:
        draws = [
            np.random.default_rng(seed).lognormal(0.0, sigma, size)
            for seed, sigma, size in zip(seeds.tolist(), sigmas, runs)
        ]
    runs_arr = np.asarray(runs, dtype=np.int64)
    run_times = np.repeat(time_s, runs_arr) * np.concatenate(draws)
    run_mops = (np.repeat(total_mops, runs_arr) / run_times).tolist()
    run_times = run_times.tolist()

    samples = _samples(list(chain.from_iterable(map(range, runs))), run_times, run_mops)
    row_fams = [fam for fam, length in zip(live, lengths) for _ in range(length)]
    pred_rows = [
        {
            "machine": fam.machine.name,
            "kernel": fam.sig.name,
            "npb_class": fam.sig.npb_class,
            "n_threads": n,
            "time_s": t,
            "mops": m,
            "t_compute": tc,
            "t_stream": ts,
            "t_latency": tl,
            "t_sync": ty,
            "vectorised": fam.vectorised,
            "calibration_factor": factor,
            "notes": fam.notes,
        }
        for fam, factor, n, t, m, tc, ts, tl, ty in zip(
            row_fams,
            [a * k for (a, k), length in zip(factors, lengths) for _ in range(length)],
            thread_counts,
            time_s.tolist(),
            mops.tolist(),
            t_comp.tolist(),
            t_str.tolist(),
            t_lat.tolist(),
            t_syn.tolist(),
        )
    ]
    preds = _records(Prediction, pred_rows)
    result_rows = [
        {
            "machine": config.machine,
            "kernel": config.kernel,
            "npb_class": config.npb_class,
            "n_threads": config.n_threads,
            "compiler": fam.compiler_name,
            "vectorised": fam.vectorised,
            "samples": tuple(samples[end - size : end]),
            "prediction": pred,
            "notes": fam.notes,
        }
        for config, fam, pred, size, end in zip(
            chain.from_iterable(fam.group for fam in live),
            row_fams,
            preds,
            runs,
            accumulate(runs),
        )
    ]
    # samples per config are never empty (runs >= 1), so ExperimentResult's
    # __post_init__ validation is vacuous on the fast path.
    results = _records(ExperimentResult, result_rows)

    flat = iter(results)
    return [
        fam.dnr if fam.dnr is not None else list(islice(flat, len(fam.ns)))
        for fam in fams
    ]


def plan_groups(
    runner: ExperimentRunner, groups: list[list[ExperimentConfig]]
) -> list[DNRError | list[ExperimentResult]]:
    """Evaluate many thread-sweep families as one block, in one pass.

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
    fams = _family_plans(groups)

    # Block layout: every live family's request rows in batch order,
    # whatever its machine, then one row per calibration anchor.
    builder = _BlockBuilder()
    for fam in fams:
        if fam.dnr is None:
            fam.vectorised, fam.notes = builder.add(
                fam.machine, fam.sig, fam.compiler, fam.group[0].vectorise, fam.ns
            )
    n_requests = builder.n_rows
    if not n_requests:
        return [fam.dnr for fam in fams]
    needed = _add_anchor_rows(model, fams, builder) if model.calibrate else {}
    terms = _eval_block(builder.build())

    # Calibration: convert anchor rows through the shared factor logic and
    # memoise -- after this, every request family's factor lookup hits.
    for key, anchor_row in needed.items():
        if anchor_row is None:
            factors = (1.0, 1.0)
        else:
            i, sig, anchor = anchor_row
            factors = factors_from_raw(sig, anchor, *(float(t[i]) for t in terms))
        model._kappa_cache[key] = factors

    return _measure_batch(runner, fams, *(t[:n_requests] for t in terms))
