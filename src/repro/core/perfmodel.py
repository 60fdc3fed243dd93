"""Analytic execution-time model: (machine, kernel, compiler, threads) -> time.

The model composes four partially-overlapping cost terms::

    T = max(T_compute, T_stream) + T_latency + T_sync

* ``T_compute`` -- dynamic instructions over the aggregate sustained issue
  rate, after Amdahl/imbalance thread derating and the compiler's
  scalar-quality and vectorisation multipliers.
* ``T_stream``  -- DRAM streaming traffic (plus transpose/halo
  communication traffic, which in shared-memory OpenMP *is* memory
  traffic) over the machine's saturating bandwidth curve ``BW(n)``.
  Modern cores overlap streaming misses with compute, hence the ``max``.
* ``T_latency`` -- prefetch-defeating random accesses over the machine's
  saturating random-access service rate ``R(n)``.  This is what makes IS
  plateau on the SG2042 (Figure 2) and scale on the SG2044.
* ``T_sync``    -- OpenMP barrier/reduction costs.

Absolute single-core rates are anchored per (machine, kernel) by
:mod:`repro.core.calibration`; everything about *scaling* -- plateaus,
crossovers, the 1.52-4.91x SG2044/SG2042 spread of Table 4 -- emerges from
the saturation physics above.

The terms are implemented once, row-wise.  A :class:`_BlockBuilder`
turns (machine, signature, compiler, vectorise) families into one block
of contiguous columns, one row per thread count, that carries every
quantity the terms read -- the signature's, the generated code's and
the machine's (cache geometry, latencies, clock, bandwidth, NUMA layout,
noise and barrier coefficients) -- and :func:`_eval_block` evaluates a
whole block in one pass, whatever machines its rows are on; the
machine-side formulas are the row formulas of
:mod:`repro.machines.machine`.  :meth:`PerformanceModel.predict_batch`
evaluates one block per call, calibration a one-row block per anchor,
and the megagrid planner (:mod:`repro.core.plan`) one block per batch;
:func:`_scaled_terms` applies the calibration factors for all of them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.compilers.model import CompilerSpec, vectorisation_outcome
from repro.machines.machine import (
    Machine,
    barrier_cost_rows,
    cache_bytes_per_thread_rows,
    parallel_efficiency_rows,
    spans_numa_rows,
)
from repro.machines.memory import smoothmin_rows

from .signature import KernelSignature

__all__ = ["Prediction", "PerformanceModel", "DNRError"]


class DNRError(RuntimeError):
    """The configuration Did Not Run (e.g. working set exceeds DRAM).

    Mirrors the paper's "DNR" entry for FT on the 1 GB AllWinner D1.
    """


@dataclass(frozen=True)
class Prediction:
    """One model evaluation.

    ``time_s`` is the predicted wall-clock for the whole benchmark;
    ``mops`` the corresponding NPB-style Mop/s.  The breakdown fields are
    the un-overlapped cost terms (their sum exceeds ``time_s`` because
    compute and streaming overlap).
    """

    machine: str
    kernel: str
    npb_class: str
    n_threads: int
    time_s: float
    mops: float
    t_compute: float
    t_stream: float
    t_latency: float
    t_sync: float
    vectorised: bool
    calibration_factor: float = 1.0
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def dominant_term(self) -> str:
        terms = {
            "compute": self.t_compute,
            "stream": self.t_stream,
            "latency": self.t_latency,
            "sync": self.t_sync,
        }
        return max(terms, key=terms.__getitem__)


class PerformanceModel:
    """Evaluates the analytic model, optionally with calibration anchors.

    Parameters
    ----------
    calibrate:
        When true (default), per-(machine, kernel) single-core anchors
        from :mod:`repro.core.calibration` scale predicted times so that
        the anchored reference points land on the paper's measurements.
        Turn off to inspect the raw physics.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self._kappa_cache: dict[tuple[str, str], tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def predict(
        self,
        machine: Machine,
        signature: KernelSignature,
        compiler: CompilerSpec,
        n_threads: int,
        vectorise: bool = True,
    ) -> Prediction:
        """Predict execution of one benchmark configuration.

        Raises
        ------
        DNRError
            If the working set does not fit in the machine's DRAM.
        ValueError
            For thread counts the machine cannot supply.
        """
        return self.predict_batch(machine, signature, compiler, (n_threads,), vectorise)[0]

    def predict_batch(
        self,
        machine: Machine,
        signatures: KernelSignature | Sequence[KernelSignature],
        compiler: CompilerSpec,
        thread_counts: Sequence[int],
        vectorise: bool = True,
    ) -> list[Prediction]:
        """Predict a grid of configurations as one evaluation block.

        Each signature's thread counts are one family of the block, which
        :func:`_eval_block` evaluates in one pass -- the same row-wise
        evaluator the planner runs over whole batches; the per-signature
        setup (vectorisation legality, compiler quality factors,
        calibration anchors) is resolved once per signature.  ``predict``
        reads row 0 of a one-row block.

        Returns predictions in signature-major order: all thread counts of
        the first signature, then the second, and so on.

        Raises like :meth:`predict`: :class:`DNRError` when a signature's
        working set does not fit the machine, ``ValueError`` for thread
        counts the machine cannot supply.
        """
        sigs = (
            [signatures]
            if isinstance(signatures, KernelSignature)
            else list(signatures)
        )
        counts = [int(n) for n in thread_counts]
        if not counts or not sigs:
            return []
        for n in dict.fromkeys(counts):
            machine.validate_thread_count(n)

        builder = _BlockBuilder()
        families = []
        for sig in sigs:
            dnr = _dnr_error(machine, sig)
            if dnr is not None:
                raise dnr
            families.append(builder.add(machine, sig, compiler, vectorise, counts))
        terms = _eval_block(builder.build())
        factors = [
            self._calibration_factors(machine, sig) if self.calibrate else (1.0, 1.0)
            for sig in sigs
        ]
        # Per-row factors stand in for each signature's scalars.
        per_sig = len(counts)
        alpha = np.repeat([a for a, _ in factors], per_sig)
        kappa = np.repeat([k for _, k in factors], per_sig)
        total_mops = np.repeat([sig.total_mops for sig in sigs], per_sig)
        time_s, mops, t_comp, t_stream, t_latency, t_sync = (
            values.tolist()
            for values in _scaled_terms(*terms, alpha, kappa, total_mops)
        )
        out: list[Prediction] = []
        i = 0
        for sig, (vectorised, notes), (a, k) in zip(sigs, families, factors):
            factor = a * k
            for n in counts:
                out.append(
                    Prediction(
                        machine=machine.name,
                        kernel=sig.name,
                        npb_class=sig.npb_class,
                        n_threads=n,
                        time_s=time_s[i],
                        mops=mops[i],
                        t_compute=t_comp[i],
                        t_stream=t_stream[i],
                        t_latency=t_latency[i],
                        t_sync=t_sync[i],
                        vectorised=vectorised,
                        calibration_factor=factor,
                        notes=notes,
                    )
                )
                i += 1
        return out

    def clear_cache(self) -> None:
        """Drop memoised calibration factors (rarely needed)."""
        self._kappa_cache.clear()

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def _calibration_factors(
        self, machine: Machine, sig: KernelSignature
    ) -> tuple[float, float]:
        key = (machine.name, sig.name)
        if key in self._kappa_cache:
            return self._kappa_cache[key]
        # Imported here to avoid a cycle (calibration evaluates its anchors
        # through this module's row evaluator).
        from . import calibration

        factors = calibration.calibration_factors(machine, sig.name)
        self._kappa_cache[key] = factors
        return factors


# ----------------------------------------------------------------------
# The row-wise evaluator: the model's one implementation of its cost terms
# ----------------------------------------------------------------------

#: Per-signature block columns, in the order :func:`_signature_row` gives them.
_SIGNATURE_COLUMNS = (
    "ws_bytes",  # sig.working_set_bytes
    "total_instructions",
    "total_dram_bytes",
    "neighbour_op_bytes",  # comm.neighbour_bytes * total_ops
    "alltoall_op_bytes",  # comm.alltoall_bytes * total_ops
    "n_barriers",  # barriers_per_mop * total_mops
    "serial_fraction",
    "imbalance_coeff",
    "numa_sensitive",  # 1.0 / 0.0
    "lat_total",  # random accesses not latency-hidden
    "gather_mlp_factor",
    "random_target_bytes",  # sig.effective_random_target_bytes
)

#: Per-(machine, compiler, kernel, vectorise) block columns, in the order
#: :func:`_code_row` gives them.
_CODE_COLUMNS = (
    "rate_per_core",  # scalar rate * quality * vectorisation multiplier
    "sus_bw_satq_gbs",  # sustained_bw_gbs * saturation quality
    "cap_llc",  # random_rate_cap * llc_random_boost * saturation quality
    "cap_dram",  # random_rate_cap * saturation quality
    "latency_multiplier",
)

#: Per-machine block columns, in the order :func:`_machine_row` gives them
#: (see :data:`_ROW_RUNS` for the runs that must stay adjacent).  An absent
#: cache level has 0 bytes (and 1 sharer); a machine without a mid-level
#: cache (no L3, so the L2 is the LLC) has ``has_mid`` 0 and placeholder
#: mid-level latency and sharers that no result reads.
_MACHINE_COLUMNS = (
    "n_cores",  # the neighbour-traffic reference thread count
    "clock_hz",
    "l1_bytes",
    "l2_bytes",
    "l3_bytes",
    "l1_sharers",
    "l2_sharers",
    "l3_sharers",
    "has_mid",
    "mid_bytes",
    "llc_agg_bytes",  # LLC capacity summed over its instances
    "mid_sharers",
    "mid_latency_s",
    "llc_latency_s",
    "dram_latency_s",
    "stream_bw_per_core_gbs",
    "saturation_sharpness",
    "numa_regions",
    "cores_per_numa",
    "numa_penalty",
    "os_noise_coeff",
    "barrier_base_ns",
    "barrier_log_coeff_ns",
    "core_mlp",
)
#: Runs of adjacent columns the block also carries as one 2-D view:
#: name -> (first column, rows).
_ROW_RUNS = {
    "level_bytes": ("l1_bytes", 3),  # L1, L2, L3 instance capacity
    "level_sharers": ("l1_sharers", 3),  # cores per instance
    "latency_s": ("mid_latency_s", 3),  # mid, LLC, DRAM latency
    "fit_bytes": ("mid_bytes", 2),  # mid instance, LLC aggregate capacity
    "random_caps": ("cap_llc", 2),  # LLC and DRAM random-access ceilings
}


#: Per column table: ``(name, start, stop)`` of each of its :data:`_ROW_RUNS`.
_RUN_SLICES = {
    names: [
        (key, names.index(first), names.index(first) + count)
        for key, (first, count) in _ROW_RUNS.items()
        if first in names
    ]
    for names in (_SIGNATURE_COLUMNS, _CODE_COLUMNS, _MACHINE_COLUMNS)
}


def _dnr_error(machine: Machine, sig: KernelSignature) -> DNRError | None:
    """The "Did Not Run" verdict when ``sig`` cannot fit in DRAM, else None."""
    if machine.memory.fits(int(sig.working_set_bytes)):
        return None
    return DNRError(
        f"{sig.display} class {sig.npb_class} needs "
        f"{sig.working_set_bytes / 2**30:.2f} GiB but "
        f"{machine.label} has only "
        f"{machine.memory.capacity_bytes / 2**30:.0f} GiB DRAM"
    )


def _signature_row(sig: KernelSignature) -> tuple:
    """One signature's :data:`_SIGNATURE_COLUMNS` values."""
    return (
        sig.working_set_bytes,
        sig.total_instructions,
        sig.total_dram_bytes,
        sig.comm.neighbour_bytes * sig.total_ops,
        sig.comm.alltoall_bytes * sig.total_ops,
        sig.comm.barriers_per_mop * sig.total_mops,
        sig.serial_fraction,
        sig.imbalance_coeff,
        # NUMA remote-touch penalties only bite kernels that touch DRAM.
        1.0 if sig.dram_bytes_per_op > 0.3 else 0.0,
        sig.total_random_accesses * (1.0 - sig.latency_hidden_fraction),
        sig.gather_mlp_factor,
        sig.effective_random_target_bytes,
    )


def _code_row(
    machine: Machine,
    sig: KernelSignature,
    compiler: CompilerSpec,
    vectorise: bool,
    outcome,
    ceilings: tuple[float, float, float, float],
) -> tuple[tuple, bool, tuple[str, ...]]:
    """What ``compiler`` makes of ``sig`` on ``machine``.

    ``outcome`` is the family's ``vectorisation_outcome`` and
    ``ceilings`` the machine's :func:`_machine_ceilings`.  Returns
    ``(columns, vectorised, notes)``: ``columns`` in
    :data:`_CODE_COLUMNS` order, ``vectorised`` whether vector code was
    emitted, ``notes`` why not when it was asked for.
    """
    notes: tuple[str, ...] = ()
    if vectorise and not outcome.legal and machine.core.has_vector:
        notes = (
            f"{compiler.display} cannot target "
            f"{machine.core.vector.standard.value}; scalar code emitted",
        )
    # The compiler's saturation quality scales the *ceilings*: poorly
    # scheduled memory code extracts less of the saturated subsystem but
    # is indistinguishable while a single core is the bottleneck.
    satq = compiler.saturation_quality_for(sig.name)
    scalar_rate, sustained_bw_gbs, llc_rate_cap, dram_rate_cap = ceilings
    columns = (
        scalar_rate * compiler.scalar_quality_for(sig.name) * outcome.compute_multiplier,
        sustained_bw_gbs * satq,
        llc_rate_cap * satq,
        dram_rate_cap * satq,
        outcome.latency_multiplier,
    )
    return columns, outcome.applied, notes


def _machine_ceilings(machine: Machine) -> tuple[float, float, float, float]:
    """The machine factors of :func:`_code_row`'s columns: scalar rate per
    core, sustained bandwidth, and the LLC and DRAM random-access caps
    (before the compiler's saturation quality)."""
    memory = machine.memory
    return (
        machine.scalar_rate_per_core(),
        memory.sustained_bw_gbs,
        memory.random_rate_cap() * memory.llc_random_boost,
        memory.random_rate_cap(),
    )


def _machine_row(machine: Machine) -> tuple:
    """One machine's :data:`_MACHINE_COLUMNS` values."""
    levels = dict(zip((c.level for c in machine.caches), machine.cache_levels()))
    (l1_bytes, l1_sharers), (l2_bytes, l2_sharers), (l3_bytes, l3_sharers) = (
        levels.get(level, (0, 1)) for level in (1, 2, 3)
    )
    # The mid level is the L2 when an L3 sits behind it.
    mid = machine.cache(2) if l3_bytes else None
    llc = machine.last_level_cache
    memory = machine.memory
    return (
        machine.n_cores,
        machine.clock_hz,
        l1_bytes,
        l2_bytes,
        l3_bytes,
        l1_sharers,
        l2_sharers,
        l3_sharers,
        0.0 if mid is None else 1.0,
        0 if mid is None else mid.size_bytes,
        llc.size_bytes * (machine.n_cores // machine.cores_sharing(llc)),
        1 if mid is None else l2_sharers,
        1.0 if mid is None else mid.latency_cycles / machine.clock_ghz * 1e-9,
        llc.latency_cycles / machine.clock_ghz * 1e-9,
        memory.idle_latency_ns * 1e-9,
        memory.per_core_stream_bw_gbs,
        memory.saturation_sharpness,
        machine.topology.numa_regions,
        machine.topology.cores_per_numa,
        machine.numa_penalty,
        machine.os_noise_coeff,
        machine.barrier_base_ns,
        machine.barrier_log_coeff_ns,
        memory.core_mlp,
    )


class _BlockBuilder:
    """Assembles one evaluation block, family by family.

    A family is one (machine, signature, compiler, vectorise) tuple over
    a list of thread counts; its rows are consecutive, in the order the
    families were added.  Signature, code and machine quantities are
    resolved once per distinct value within the block and gathered onto
    the rows by index when the block is built, so a block of many
    families on many machines is one table of contiguous columns.
    Nothing outlives the builder.
    """

    def __init__(self) -> None:
        self._pinned: list = []  # keeps the objects behind id() keys alive
        self._machines: dict[int, int] = {}
        self._sigs: dict[int, int] = {}
        self._codes: dict[tuple, tuple[int, bool, tuple[str, ...]]] = {}
        self._outcomes: dict[tuple, object] = {}
        self._ceilings: list[tuple[float, float, float, float]] = []
        self._machine_rows: list[tuple] = []
        self._sig_rows: list[tuple] = []
        self._code_rows: list[tuple] = []
        self._index: list[tuple[int, int, int]] = []
        self._lengths: list[int] = []
        self._ns: list[int] = []

    @property
    def n_rows(self) -> int:
        return len(self._ns)

    def add(
        self,
        machine: Machine,
        sig: KernelSignature,
        compiler: CompilerSpec,
        vectorise: bool,
        thread_counts: Sequence[int],
    ) -> tuple[bool, tuple[str, ...]]:
        """Append one family's rows; returns ``(vectorised, notes)``."""
        m = self._machines.get(id(machine))
        if m is None:
            m = self._machines[id(machine)] = len(self._machine_rows)
            self._machine_rows.append(_machine_row(machine))
            self._ceilings.append(_machine_ceilings(machine))
            self._pinned.append(machine)
        s = self._sigs.get(id(sig))
        if s is None:
            s = self._sigs[id(sig)] = len(self._sig_rows)
            self._sig_rows.append(_signature_row(sig))
            self._pinned.append(sig)
        inputs = (id(compiler), sig.name, sig.vec_fraction, sig.gather_pathology, vectorise)
        code = self._codes.get((m, inputs))
        if code is None:
            # Machines sharing a vector unit share its outcome.
            vector = machine.core.vector
            outcome = self._outcomes.get((id(vector), inputs))
            if outcome is None:
                outcome = self._outcomes[(id(vector), inputs)] = vectorisation_outcome(
                    compiler,
                    vector,
                    sig.name,
                    sig.vec_fraction,
                    vectorise,
                    gather_pathology=sig.gather_pathology,
                )
                self._pinned += (compiler, vector)
            columns, vectorised, notes = _code_row(
                machine, sig, compiler, vectorise, outcome, self._ceilings[m]
            )
            code = self._codes[(m, inputs)] = (len(self._code_rows), vectorised, notes)
            self._code_rows.append(columns)
        self._index.append((s, code[0], m))
        self._lengths.append(len(thread_counts))
        self._ns.extend(thread_counts)
        return code[1], code[2]

    def build(self) -> dict[str, np.ndarray]:
        """The block: one contiguous column per quantity, one row per config.

        Validates what the cost terms divide by, once per block: every
        working set and every saturation ceiling must be positive.
        """
        sigs = np.asarray(self._sig_rows, dtype=np.float64).T
        codes = np.asarray(self._code_rows, dtype=np.float64).T
        if np.count_nonzero(sigs[0] <= 0):  # ws_bytes
            raise ValueError("working_set must be positive")
        if np.count_nonzero(codes[1:4] <= 0):  # sus_bw_satq_gbs, cap_llc, cap_dram
            raise ValueError("saturation ceilings must be positive")
        machines = np.asarray(self._machine_rows, dtype=np.float64).T
        index = np.repeat(np.asarray(self._index).T, self._lengths, axis=1)
        g: dict[str, np.ndarray] = {"n": np.asarray(self._ns, dtype=np.int64)}
        for names, table, rows in (
            (_SIGNATURE_COLUMNS, sigs, index[0]),
            (_CODE_COLUMNS, codes, index[1]),
            (_MACHINE_COLUMNS, machines, index[2]),
        ):
            columns = table.take(rows, axis=1)
            g.update(zip(names, columns))
            for key, start, stop in _RUN_SLICES[names]:
                g[key] = columns[start:stop]
        g["numa_sensitive"] = g["numa_sensitive"] != 0.0
        g["has_mid"] = g["has_mid"] != 0.0
        return g


def _family_block(
    machine: Machine,
    sig: KernelSignature,
    compiler: CompilerSpec,
    vectorise: bool,
    thread_counts: Sequence[int],
) -> tuple[dict[str, np.ndarray], bool, tuple[str, ...]]:
    """A one-family block plus its ``(vectorised, notes)``."""
    builder = _BlockBuilder()
    vectorised, notes = builder.add(machine, sig, compiler, vectorise, thread_counts)
    return builder.build(), vectorised, notes


def _spill_fraction(
    working_set: float | np.ndarray, cache_bytes: np.ndarray
) -> np.ndarray:
    """Fraction of nominal DRAM traffic that actually reaches DRAM.

    NPB's big kernels sweep their working set with full-set reuse
    distance, so under (pseudo-)LRU the cache is nearly all-or-nothing:
    a set slightly larger than cache thrashes completely.  We model a
    sharp knee -- full spill below ~60% coverage, full residency (bar a
    2% compulsory/coherence trickle) once it fits, and a narrow linear
    band between (partial tiling/blocking effects).  Elementwise over
    arrays of (positive, validated by :meth:`_BlockBuilder.build`)
    working sets and capacities.
    """
    ratio = cache_bytes / working_set
    trans = 1.0 - (1.0 - 0.02) * (ratio - 0.6) / 0.4
    return np.where(ratio >= 1.0, 0.02, np.where(ratio <= 0.6, 1.0, trans))


def _effective_threads_rows(g, ns, nsf, spans_numa) -> np.ndarray:
    """Amdahl + load-imbalance + machine-side derating of thread counts.

    Exactly 1.0 at one thread: each factor is.
    """
    amdahl = nsf / (1.0 + g["serial_fraction"] * (nsf - 1.0))
    imbalance = np.maximum(0.5, 1.0 - g["imbalance_coeff"] * np.log2(nsf))
    eff = parallel_efficiency_rows(
        ns, g["os_noise_coeff"], g["numa_penalty"], g["numa_sensitive"] & spans_numa
    )
    return amdahl * imbalance * eff


def _communication_bytes_rows(g, ns, nsf, spans_numa) -> np.ndarray:
    """Inter-thread traffic, which on a shared-memory chip is memory
    traffic.

    Halo (neighbour) volume grows with the number of partition surfaces,
    ~ n^(2/3) for 3D decompositions, normalised to the full-chip run the
    signature was characterised at.  All-to-all transpose volume is
    essentially constant in n (every element moves once) but pays a NUMA
    factor when threads span regions.
    """
    neighbour = g["neighbour_op_bytes"] * (nsf / g["n_cores"]) ** (2.0 / 3.0)
    alltoall = g["alltoall_op_bytes"] * np.where(spans_numa, 1.25, 1.0)
    return np.where(ns == 1, 0.0, neighbour + alltoall)


def _latency_time_rows(g, ns, nsf, spill) -> np.ndarray:
    """Random-access (latency-bound) time, serviced hierarchically.

    The randomly-accessed structure (``sig.random_target_bytes``) is
    split by where it fits -- hot-end shares: a structure 2x the cache
    still hits for the resident half:

    * the mid-level cache instance (private or cluster L2) -- serviced at
      L2 latency, scaling with the number of occupied clusters (CG's
      x-vector; the SG2044's doubled 2 MB L2 helps exactly here);
    * the shared last-level cache -- serviced at LLC latency but capped
      chip-wide by the fabric (the SG2042's crossbar is why IS plateaus
      at 16 cores there);
    * DRAM -- capped by the controllers' random-row throughput.

    The three levels are evaluated as the three rows of one
    ``(level, row)`` array.  Contention appears *only* through the
    smooth-min ceilings; loaded-latency inflation on top would
    double-count saturation.  Rows whose family has no unhidden random
    accesses are exactly ``0.0``.
    """
    lat_total = g["lat_total"]
    if not np.count_nonzero(lat_total):
        return np.zeros(ns.shape, dtype=np.float64)
    # Mid-level and LLC fit in one (2, row) pass; mid is 0 without a mid
    # level (``mid_bytes`` is 0 there).
    fit = 0.98 * np.minimum(1.0, g["fit_bytes"] / g["random_target_bytes"])
    fit_mid = fit[0]
    fit_llc = np.maximum(fit_mid, fit[1])
    fracs = np.empty((3, ns.shape[0]))  # mid, LLC, DRAM
    frac_mid, frac_llc, frac_dram = fracs
    np.maximum(1.0 - fit_llc, 0.02 * spill, out=frac_dram)
    np.maximum(0.0, 1.0 - fit_mid - frac_dram, out=frac_llc)
    np.maximum(0.0, 1.0 - frac_llc - frac_dram, out=frac_mid)

    caps = np.empty_like(fracs)
    # One line every ~3 cycles per mid-level instance.
    instances = -(-ns // g["mid_sharers"])
    np.divide(instances * g["clock_hz"], 3.0, out=caps[0])
    caps[1:] = g["random_caps"]
    demand = nsf * (g["core_mlp"] * g["gather_mlp_factor"]) / g["latency_s"]
    times = fracs * lat_total / smoothmin_rows(demand, caps, g["saturation_sharpness"])
    # Rows without unhidden random accesses sum three exact zeros.
    return np.where(g["has_mid"], times[0], 0.0) + times[1] + times[2]


def _eval_block(g: dict[str, np.ndarray]):
    """The raw (uncalibrated) cost terms of every row of block ``g``.

    Returns ``(t_compute, t_stream, t_latency, t_sync)`` arrays.  Every
    operation is elementwise, so a row's terms do not depend on which
    block, or which other machines' rows, it is evaluated with.
    """
    ns = g["n"]
    nsf = ns.astype(np.float64)
    spans_numa = spans_numa_rows(ns, g["numa_regions"], g["cores_per_numa"])

    # --- cache fit: how much of the nominal traffic reaches DRAM --------
    cache_bytes = (
        cache_bytes_per_thread_rows(ns, g["level_bytes"], g["level_sharers"]) * nsf
    )
    spill = _spill_fraction(g["ws_bytes"], cache_bytes)

    # --- compute --------------------------------------------------------
    n_eff = _effective_threads_rows(g, ns, nsf, spans_numa)
    t_compute = g["total_instructions"] / (n_eff * g["rate_per_core"])

    # --- streaming bandwidth ---------------------------------------------
    comm_bytes = _communication_bytes_rows(g, ns, nsf, spans_numa)
    stream_bytes = g["total_dram_bytes"] * spill + comm_bytes
    bw_demand = nsf * g["stream_bw_per_core_gbs"]
    bw = (
        smoothmin_rows(bw_demand, g["sus_bw_satq_gbs"], g["saturation_sharpness"])
        * 1e9
    )
    t_stream = stream_bytes / bw

    # --- random-access latency -------------------------------------------
    t_latency = _latency_time_rows(g, ns, nsf, spill)
    t_latency = t_latency * g["latency_multiplier"]

    # --- synchronisation ---------------------------------------------------
    t_sync = g["n_barriers"] * barrier_cost_rows(
        ns, g["barrier_base_ns"], g["barrier_log_coeff_ns"]
    )
    return t_compute, t_stream, t_latency, t_sync


def _scaled_terms(t_compute, t_stream, t_latency, t_sync, alpha, kappa, total_mops):
    """Calibrated ``(time_s, mops, t_compute, t_stream, t_latency, t_sync)``.

    ``alpha`` scales the compute term and ``kappa`` the whole time (see
    :func:`repro.core.calibration.calibration_factors`); scalars or
    per-row arrays alike.
    """
    t_comp = t_compute * alpha
    time_s = (np.maximum(t_comp, t_stream) + t_latency + t_sync) * kappa
    return (
        time_s,
        total_mops / time_s,
        t_comp * kappa,
        t_stream * kappa,
        t_latency * kappa,
        t_sync * kappa,
    )
