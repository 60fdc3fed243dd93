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

The terms are implemented once, row-wise: :func:`_family_scalars`
resolves a (machine, signature, compiler, vectorise) family into the
per-family columns of a :data:`GRID_DTYPE` block (one row per thread
count) and :func:`_eval_segment` evaluates every row of a block on one
machine.  :meth:`PerformanceModel.predict_batch` evaluates one block per
signature, calibration a one-row block per anchor, and the megagrid
planner (:mod:`repro.core.plan`) one block per machine for a whole batch;
:func:`_scaled_terms` applies the calibration factors for both callers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.compilers.model import CompilerSpec, vectorisation_outcome
from repro.machines.machine import Machine
from repro.machines.memory import smoothmin_grid

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
        """Predict a grid of configurations, one row block per signature.

        Each signature's thread counts are one :data:`GRID_DTYPE` block
        evaluated by :func:`_eval_segment`, the same row-wise evaluator
        the planner runs over whole batches; the per-signature setup
        (vectorisation legality, compiler quality factors, calibration
        anchors) is resolved once per signature.  ``predict`` reads row 0
        of a one-row block.

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

        out: list[Prediction] = []
        for sig in sigs:
            dnr = _dnr_error(machine, sig)
            if dnr is not None:
                raise dnr
            columns, vectorised, notes = _family_scalars(
                machine, sig, compiler, vectorise
            )
            terms = _eval_segment(machine, _row_block([columns], [len(counts)], counts))
            if self.calibrate:
                alpha, kappa = self._calibration_factors(machine, sig)
            else:
                alpha, kappa = 1.0, 1.0
            time_s, mops, t_comp, t_stream, t_latency, t_sync = (
                values.tolist()
                for values in _scaled_terms(*terms, alpha, kappa, sig.total_mops)
            )
            factor = alpha * kappa
            out.extend(
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
                for i, n in enumerate(counts)
            )
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

#: One row per config: the thread count plus every per-family quantity
#: the cost terms consume, repeated across the family's rows so a block
#: of many families on one machine evaluates in one vectorised pass.
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
    ],
    # Padded to 8-byte rows: ufuncs on unaligned field views take
    # NumPy's buffered slow path.
    align=True,
)


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


def _family_scalars(
    machine: Machine, sig: KernelSignature, compiler: CompilerSpec, vectorise: bool
) -> tuple[tuple, bool, tuple[str, ...]]:
    """One family's per-family quantities and its vectorisation verdict.

    Returns ``(columns, vectorised, notes)``: ``columns`` ordered as the
    non-``n`` :data:`GRID_DTYPE` fields, ``vectorised`` whether vector
    code was emitted, ``notes`` why not when it was asked for.
    """
    outcome = vectorisation_outcome(
        compiler,
        machine.core.vector,
        sig.name,
        sig.vec_fraction,
        vectorise,
        gather_pathology=sig.gather_pathology,
    )
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
    # Random-target fit fractions (hot-end shares: a structure 2x the
    # cache still hits for the resident half).
    target_bytes = sig.effective_random_target_bytes
    mid = machine.cache(2) if machine.cache(3) is not None else None
    llc = machine.last_level_cache
    fit_mid = 0.0
    if mid is not None:
        fit_mid = 0.98 * min(1.0, mid.size_bytes / target_bytes)
    llc_agg = llc.size_bytes * (machine.n_cores // machine.cores_sharing(llc))
    fit_llc = max(fit_mid, 0.98 * min(1.0, llc_agg / target_bytes))

    columns = (
        sig.working_set_bytes,
        sig.total_instructions,
        sig.total_dram_bytes,
        sig.comm.neighbour_bytes * sig.total_ops,
        sig.comm.alltoall_bytes * sig.total_ops,
        sig.comm.barriers_per_mop * sig.total_mops,
        machine.scalar_rate_per_core()
        * compiler.scalar_quality_for(sig.name)
        * outcome.compute_multiplier,
        sig.serial_fraction,
        sig.imbalance_coeff,
        # NUMA remote-touch penalties only bite kernels that touch DRAM.
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
    return columns, outcome.applied, notes


def _row_block(
    columns: Sequence[tuple], lengths: Sequence[int], thread_counts: Sequence[int]
) -> np.ndarray:
    """A :data:`GRID_DTYPE` block: family ``i``'s ``columns`` over its
    ``lengths[i]`` consecutive rows, ``thread_counts`` as the ``n`` column."""
    rows = np.array([(0, *family) for family in columns], dtype=GRID_DTYPE)
    grid = rows.repeat(lengths)
    grid["n"] = thread_counts
    return grid


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
    arrays of working sets and capacities.
    """
    if np.count_nonzero(np.asarray(working_set) <= 0):
        raise ValueError("working_set must be positive")
    ratio = cache_bytes / working_set
    trans = 1.0 - (1.0 - 0.02) * (ratio - 0.6) / 0.4
    return np.where(ratio >= 1.0, 0.02, np.where(ratio <= 0.6, 1.0, trans))


def _effective_threads_rows(g: np.ndarray, machine: Machine, ns, nsf) -> np.ndarray:
    """Amdahl + load-imbalance + machine-side derating of thread counts."""
    amdahl = nsf / (1.0 + g["serial_fraction"] * (nsf - 1.0))
    imbalance = np.maximum(0.5, 1.0 - g["imbalance_coeff"] * np.log2(nsf))
    # A family's rows share one variant; mixed blocks select per row.
    sensitive = g["numa_sensitive"]
    if np.count_nonzero(sensitive) in (0, sensitive.size):
        eff = machine.parallel_efficiency_grid(ns, numa_sensitive=bool(sensitive[0]))
    else:
        eff = np.where(
            sensitive,
            machine.parallel_efficiency_grid(ns, numa_sensitive=True),
            machine.parallel_efficiency_grid(ns, numa_sensitive=False),
        )
    res = amdahl * imbalance * eff
    return np.where(ns == 1, 1.0, res)


def _communication_bytes_rows(g: np.ndarray, machine: Machine, ns, nsf) -> np.ndarray:
    """Inter-thread traffic, which on a shared-memory chip is memory
    traffic.

    Halo (neighbour) volume grows with the number of partition surfaces,
    ~ n^(2/3) for 3D decompositions, normalised to the full-chip run the
    signature was characterised at.  All-to-all transpose volume is
    essentially constant in n (every element moves once) but pays a NUMA
    factor when threads span regions.
    """
    ref = machine.n_cores
    neighbour = g["neighbour_op_bytes"] * (nsf / ref) ** (2.0 / 3.0)
    if machine.topology.numa_regions > 1:
        numa_factor = np.where(ns > machine.topology.cores_per_numa, 1.25, 1.0)
    else:
        numa_factor = 1.0
    alltoall = g["alltoall_op_bytes"] * numa_factor
    return np.where(ns == 1, 0.0, neighbour + alltoall)


def _latency_time_rows(g: np.ndarray, machine: Machine, ns, nsf, spill) -> np.ndarray:
    """Random-access (latency-bound) time, serviced hierarchically.

    The randomly-accessed structure (``sig.random_target_bytes``) is
    split by where it fits (``fit_mid``/``fit_llc``):

    * the mid-level cache instance (private or cluster L2) -- serviced at
      L2 latency, scaling with the number of occupied clusters (CG's
      x-vector; the SG2044's doubled 2 MB L2 helps exactly here);
    * the shared last-level cache -- serviced at LLC latency but capped
      chip-wide by the fabric (the SG2042's crossbar is why IS plateaus
      at 16 cores there);
    * DRAM -- capped by the controllers' random-row throughput.

    Contention appears *only* through the smooth-min ceilings;
    loaded-latency inflation on top would double-count saturation.  Rows
    whose family has no unhidden random accesses are exactly ``0.0``.
    """
    lat_total = g["lat_total"]
    if not np.count_nonzero(lat_total):
        return np.zeros(ns.shape, dtype=np.float64)
    sharp = machine.memory.saturation_sharpness
    ghz = machine.clock_ghz
    mid = machine.cache(2) if machine.cache(3) is not None else None
    llc = machine.last_level_cache

    frac_dram = np.maximum(1.0 - g["fit_llc"], 0.02 * spill)
    frac_llc = np.maximum(0.0, 1.0 - g["fit_mid"] - frac_dram)
    frac_mid = np.maximum(0.0, 1.0 - frac_llc - frac_dram)

    mlp = g["mlp"]
    time_rows = np.zeros(ns.shape, dtype=np.float64)
    if mid is not None:
        lat_s = mid.latency_cycles / ghz * 1e-9
        demand = nsf * mlp / lat_s
        # One line every ~3 cycles per L2 instance.
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


def _eval_segment(machine: Machine, g: np.ndarray):
    """The raw (uncalibrated) cost terms of every row of ``g`` on ``machine``.

    Returns ``(t_compute, t_stream, t_latency, t_sync)`` arrays.  Every
    operation is elementwise, so a row's terms do not depend on which
    block it is evaluated in.
    """
    ns = g["n"]
    nsf = ns.astype(np.float64)

    # --- cache fit: how much of the nominal traffic reaches DRAM --------
    cache_bytes = machine.effective_cache_bytes_per_thread_grid(ns) * nsf
    spill = _spill_fraction(g["ws_bytes"], cache_bytes)

    # --- compute --------------------------------------------------------
    n_eff = _effective_threads_rows(g, machine, ns, nsf)
    t_compute = g["total_instructions"] / (n_eff * g["rate_per_core"])

    # --- streaming bandwidth ---------------------------------------------
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

    # --- random-access latency -------------------------------------------
    t_latency = _latency_time_rows(g, machine, ns, nsf, spill)
    t_latency = t_latency * g["latency_multiplier"]

    # --- synchronisation ---------------------------------------------------
    t_sync = g["n_barriers"] * machine.barrier_cost_s_grid(ns)
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
