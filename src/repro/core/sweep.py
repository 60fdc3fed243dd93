"""Batched sweep engine: grid expansion, memoisation, batch execution.

The paper's methodology is one large cross-product sweep -- machines x
kernels x classes x thread counts x compilers x vectorisation -- and every
table and figure regenerator walks some slice of that grid.  This module
turns those walks into batch jobs:

* :func:`expand_grid` expands axis tuples into a deduplicated, ordered
  list of :class:`ExperimentConfig`.
* :class:`SweepEngine` executes config batches through
  :meth:`ExperimentRunner.run_many` (one vectorised model evaluation per
  thread-sweep family, or one megagrid planner pass per batch) and
  memoises every :class:`ExperimentResult` keyed by the exact
  seed/config tuple so repeated regenerators hit cache.

Determinism: the runner keys its noise stream per config (sha256 of seed
and config fields), so results are independent of execution order --
planned, per-family, cached and one-at-a-time runs are byte-identical.

Caching vs reproducibility: a cache hit returns the very object a cold
run would have computed, because everything that influences a result
(runner seed, noise level, calibration flag, config fields) is part of
the cache key.  :func:`clear_caches` evicts every process-wide cache if
isolation is ever needed.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable, Sequence

from repro import obs

from .experiment import DEFAULT_RUNS, ExperimentConfig, ExperimentRunner
from .perfmodel import DNRError
from .plan import PlanNotApplicable, plan_groups
from .results import ExperimentResult

__all__ = [
    "SweepEngine",
    "expand_grid",
    "paper_vectorise",
    "compute_cache_key",
    "default_engine",
    "set_default_store",
    "clear_caches",
]


def paper_vectorise(kernel: str) -> bool:
    """The paper's per-kernel vectorisation default.

    CG's indexed gathers are a vectorisation pathology on every machine
    in the study, so the harness compiles it scalar; everything else is
    auto-vectorised at ``-O3``.
    """
    return kernel != "cg"


def _axis(value) -> tuple:
    if value is None or isinstance(value, (str, int, bool)):
        return (value,)
    return tuple(value)


def expand_grid(
    machines,
    kernels,
    classes="C",
    thread_counts=1,
    compilers=None,
    vectorise=None,
    runs: int = DEFAULT_RUNS,
) -> list[ExperimentConfig]:
    """Expand axis values into a deduplicated list of configs.

    Every axis accepts a single value or an iterable.  ``vectorise=None``
    (the default) selects the paper's per-kernel setting via
    :func:`paper_vectorise`; ``compilers=None`` keeps each machine's
    paper-default compiler.  Order is the natural nested-loop order
    (machines outermost, vectorise innermost) with later duplicates
    dropped.
    """
    out: list[ExperimentConfig] = []
    seen: set[ExperimentConfig] = set()
    for machine in _axis(machines):
        for kernel in _axis(kernels):
            for npb_class in _axis(classes):
                for n_threads in _axis(thread_counts):
                    for compiler in _axis(compilers):
                        for vec in _axis(vectorise):
                            config = ExperimentConfig(
                                machine=machine,
                                kernel=kernel,
                                npb_class=npb_class,
                                n_threads=n_threads,
                                compiler=compiler,
                                vectorise=(
                                    paper_vectorise(kernel) if vec is None else vec
                                ),
                                runs=runs,
                            )
                            if config not in seen:
                                seen.add(config)
                                out.append(config)
    return out


def compute_cache_key(
    seed: int, noise_cv: float, calibrate: bool, config: ExperimentConfig
) -> tuple:
    """The full memo key for one config under given runner settings.

    Module-level (not only an engine method) so code holding only the
    runner settings ``(seed, noise_cv, calibrate)`` derives byte-identical
    store keys without an engine instance.
    """
    return (
        seed,
        noise_cv,
        calibrate,
        config.machine,
        config.kernel,
        config.npb_class,
        config.n_threads,
        config.resolved_compiler(),
        config.vectorise,
        config.runs,
    )


class SweepEngine:
    """Memoising front-end over an ExperimentRunner.

    Parameters
    ----------
    runner:
        The runner to execute through (a default calibrated runner when
        omitted).
    planner:
        Whether cold batches are flattened into one megagrid pass
        (:func:`repro.core.plan.plan_groups`) instead of one
        ``predict_batch`` call per family.  ``None`` reads
        ``REPRO_PLANNER`` (default on; set ``0`` for the per-family
        oracle).  Subclassed runners/models are refused by the planner
        itself and always take the per-family path.
    store:
        Optional :class:`repro.store.ResultStore` (or a path to one;
        ``None`` reads ``REPRO_STORE``).  The durable tier under the
        memo cache: pending keys are preloaded from the store *before*
        planning, and every committed family is published to it as it
        lands, so an interrupted run resumes from completed families by
        rerunning against the same store.  Store-restored values are
        bit-identical to computed ones (``repr``-float codec).  Two
        processes sharing a store do not coordinate: a key both execute
        is written twice with identical bytes.

    Results are memoised per exact (seed, noise, calibration, config)
    tuple; "Did Not Run" configurations cache their :class:`DNRError`
    the same way, so a grid with DNR holes is still cheap to re-expand.

    Failure taxonomy (see :mod:`repro.faults.taxonomy`): DNR verdicts
    are cached as results, and everything else propagates to the caller
    exactly once -- a failing family never triggers re-execution of
    families that already completed, and its claims are released so the
    next caller can re-claim the key.

    Concurrency: execution is in-process and serial per batch, but the
    engine is safe to hammer from many threads (the service's job
    workers share one).  A single-flight table (``_inflight``)
    guarantees each cache key is executed at most once even when
    concurrent :meth:`run_many` calls race on the same cold keys -- late
    arrivals wait on the claimant's event instead of duplicating work.
    Each claimed batch has one completion event, shared by every key it
    claimed, so **subgrid containment** is the general case: a batch
    whose cold keys are all in flight under one claimant waits on that
    single event (counted by ``sweep.containment_waits``).

    Observability: cache hits/misses, executed configs/groups and DNR
    outcomes are mirrored into :mod:`repro.obs` counters, and every
    batch runs under a ``run_many`` span with one ``group[kernel/class]``
    child per thread-sweep family.  ``dnr_configs`` counts, on the return
    path, every requested config whose (possibly cached) result is a DNR.
    """

    def __init__(
        self,
        runner: ExperimentRunner | None = None,
        *,
        planner: bool | None = None,
        store=None,
    ) -> None:
        self.runner = runner or ExperimentRunner()
        self.planner = self._resolve_planner(planner)
        self.store = self._resolve_store(store)
        self._results: dict[tuple, ExperimentResult | DNRError] = {}
        self._inflight: dict[tuple, threading.Event] = {}
        self._lock = threading.Lock()
        self._family_hooks: list = []
        self.hits = 0
        self.misses = 0
        self.dnr_configs = 0

    @staticmethod
    def _resolve_planner(planner: bool | None) -> bool:
        if planner is None:
            return os.environ.get("REPRO_PLANNER", "1") != "0"
        return bool(planner)

    @staticmethod
    def _resolve_store(store):
        """Resolve the persistent result store (``REPRO_STORE``, default none).

        Accepts a ready :class:`repro.store.ResultStore`, a directory
        path, or ``None`` (consult the environment).  Persistence is a
        behaviour an operator opts into explicitly.
        """
        if store is None:
            # Most runs have no store: they never import repro.store.
            if not os.environ.get("REPRO_STORE"):
                return None
            from repro.store import store_from_env

            return store_from_env()
        if isinstance(store, (str, os.PathLike)):
            from repro.store import ResultStore

            return ResultStore(store)
        return store

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def cache_key(self, config: ExperimentConfig) -> tuple:
        """Everything that can influence this config's result."""
        runner = self.runner
        return compute_cache_key(
            runner.seed, runner.noise_cv, runner.model.calibrate, config
        )

    def clear_cache(self) -> None:
        """Evict all memoised results (and reset the hit/miss/DNR counters).

        The attached store (if any) is deliberately left intact: it is
        the durable record an interrupted run resumes from.
        """
        with self._lock:
            self._results.clear()
            self.hits = 0
            self.misses = 0
            self.dnr_configs = 0

    # ------------------------------------------------------------------
    # Job hooks (what the service layer's job manager builds on)
    # ------------------------------------------------------------------

    def completed_count(self, configs: Sequence[ExperimentConfig]) -> int:
        """How many of these configs already have a memoised outcome.

        A DNR verdict counts as completed -- the grid slot has an answer.
        The service layer polls this for job progress: ``completed /
        len(configs)`` moves monotonically from 0 to 1 as families land.
        """
        keys = [self.cache_key(c) for c in configs]
        with self._lock:
            return sum(1 for key in keys if key in self._results)

    def add_family_hook(self, hook) -> None:
        """Register ``hook(n_configs, dnr)``, called after each family lands.

        Hooks fire once per completed thread-sweep family -- planned or
        per-family -- right after its results are memoised and published,
        and always *outside* the engine lock, so a hook may freely call
        back into the engine.  ``dnr`` is True when the family's shared
        outcome was a DNR verdict.  Hook exceptions propagate like any
        fatal group failure: the engine never swallows them.
        """
        with self._lock:
            self._family_hooks.append(hook)

    def remove_family_hook(self, hook) -> None:
        """Unregister a hook added by :meth:`add_family_hook` (idempotent)."""
        with self._lock:
            self._family_hooks = [h for h in self._family_hooks if h is not hook]

    def _notify_family(self, n_configs: int, dnr: bool) -> None:
        with self._lock:
            hooks = list(self._family_hooks)
        for hook in hooks:
            hook(n_configs, dnr)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_many(
        self,
        configs: Sequence[ExperimentConfig],
        on_dnr: str = "raise",
    ) -> list[ExperimentResult | None]:
        """Execute a batch, memoised and (for cold work) batch-evaluated.

        Every cache key is computed once, here, and handed down to the
        commit.  Cold keys are claimed under one single-flight event for
        the whole batch; keys another caller holds are waited on through
        that caller's batch event, once per distinct event.  Cold configs
        are grouped into thread-sweep families (identical in everything
        but ``n_threads``) and evaluated in one megagrid planner pass, or
        one family at a time when the planner is off or refuses.  Output
        order always matches input order.

        ``on_dnr`` controls "Did Not Run" configs: ``"raise"`` propagates
        the :class:`DNRError`, ``"none"`` yields ``None`` in that slot
        (what the table renderers want for DNR cells).
        """
        if on_dnr not in ("raise", "none"):
            raise ValueError(f"on_dnr must be 'raise' or 'none', got {on_dnr!r}")
        configs = list(configs)
        keys = [self.cache_key(c) for c in configs]
        obs.incr("sweep.configs_requested", len(configs))

        with obs.span("run_many"):
            pending, claim, waiting, events = self._claim(keys, configs)
            while pending or waiting:
                if pending:
                    self._execute_pending(pending, claim)
                for event in events:
                    event.wait()
                if not waiting:
                    break
                # Keys we merely waited on may be orphans: the claimant died
                # before storing (its claim was released by the finally in
                # _execute_pending).  Take those over; our own pending keys
                # are guaranteed stored (or we would have raised).
                with self._lock:
                    missing = {
                        key: config
                        for key, config in waiting.items()
                        if key not in self._results
                    }
                if not missing:
                    break
                pending, claim, waiting, events = self._reclaim(missing)

        with self._lock:
            values = [self._results[key] for key in keys]

        out: list[ExperimentResult | None] = []
        dnr_count = 0
        first_dnr: DNRError | None = None
        for value in values:
            if isinstance(value, DNRError):
                dnr_count += 1
                if first_dnr is None:
                    first_dnr = value
                out.append(None)
            else:
                out.append(value)
        if dnr_count:
            with self._lock:
                self.dnr_configs += dnr_count
        obs.incr("sweep.dnr_configs", dnr_count)
        if first_dnr is not None and on_dnr == "raise":
            raise first_dnr
        return out

    def _claim(
        self, keys: list[tuple], configs: list[ExperimentConfig]
    ) -> tuple[
        dict[tuple, ExperimentConfig],
        threading.Event | None,
        dict[tuple, ExperimentConfig],
        list[threading.Event],
    ]:
        """Classify a batch under the lock, claiming cold keys for this caller.

        A key already cached (or duplicated earlier in the batch, or being
        executed by a concurrent caller) counts as a hit; each unique cold
        key counts as one miss and is claimed in the single-flight table so
        no other caller executes it.  Every key claimed here maps to one
        shared event, created only if something is claimed.  Returns the
        claimed configs, that event, the configs being executed by
        concurrent callers (``waiting``), and the distinct events of the
        batches executing them.

        Subgrid containment: a batch that claims nothing and waits on
        exactly one event rides a single in-flight batch wholesale.
        """
        pending: dict[tuple, ExperimentConfig] = {}
        waiting: dict[tuple, ExperimentConfig] = {}
        events: dict[threading.Event, None] = {}
        claim: threading.Event | None = None
        hits = misses = 0
        inflight = self._inflight
        with self._lock:
            results = self._results
            for key, config in zip(keys, configs):
                if key in results or key in pending:
                    hits += 1
                    continue
                event = inflight.get(key)
                if event is not None:
                    hits += 1
                    waiting[key] = config
                    events[event] = None
                else:
                    misses += 1
                    pending[key] = config
                    if claim is None:
                        claim = threading.Event()
                    inflight[key] = claim
            self.hits += hits
            self.misses += misses
        obs.incr("sweep.cache_hits", hits)
        obs.incr("sweep.cache_misses", misses)
        if waiting and not pending and len(events) == 1:
            obs.incr("sweep.containment_waits")
        return pending, claim, waiting, list(events)

    def _reclaim(
        self, missing: dict[tuple, ExperimentConfig]
    ) -> tuple[
        dict[tuple, ExperimentConfig],
        threading.Event | None,
        dict[tuple, ExperimentConfig],
        list[threading.Event],
    ]:
        """Re-claim keys whose original claimant failed (no hit/miss counts).

        Same shape as :meth:`_claim`: at most one new event, and each
        distinct event still in flight once.
        """
        pending: dict[tuple, ExperimentConfig] = {}
        waiting: dict[tuple, ExperimentConfig] = {}
        events: dict[threading.Event, None] = {}
        claim: threading.Event | None = None
        with self._lock:
            for key, config in missing.items():
                if key in self._results:
                    continue
                event = self._inflight.get(key)
                if event is not None:
                    waiting[key] = config
                    events[event] = None
                else:
                    pending[key] = config
                    if claim is None:
                        claim = threading.Event()
                    self._inflight[key] = claim
        return pending, claim, waiting, list(events)

    def _execute_pending(
        self, pending: dict[tuple, ExperimentConfig], claim: threading.Event
    ) -> None:
        """Preload claimed keys from the store, execute the rest, release claims.

        ``claim`` is the batch's one single-flight event.  It is set
        exactly once, in the ``finally``, after every claimed key has left
        the table -- also when the store absorbed the whole batch, and
        when execution fails, so waiters re-classify instead of blocking
        forever.  Keys absorbed from the store leave the table early but
        do not set it: the batch's other keys are still executing, and an
        early signal would only make their waiters spin.

        The store preload runs before any planning and outside the engine
        lock (the lock guards tables, never I/O).
        """
        claimed = pending
        try:
            if self.store is not None:
                pending = self._store_preload(pending)
            if pending:
                self._execute_families(pending)
        finally:
            # Successful paths have stored results by the time the event
            # fires; failed ones leave their keys unclaimed for a retry.
            with self._lock:
                for key in claimed:
                    self._inflight.pop(key, None)
            claim.set()

    def _execute_families(self, pending: dict[tuple, ExperimentConfig]) -> None:
        """Group claimed ``(key, config)`` pairs into thread-sweep families
        and execute; each family carries its keys down to the commit."""
        families: dict[tuple, tuple[list[tuple], list[ExperimentConfig]]] = {}
        for key, config in pending.items():
            family = families.setdefault(config.family_key(), ([], []))
            family[0].append(key)
            family[1].append(config)
        self._execute_groups(
            [configs for _, configs in families.values()],
            [keys for keys, _ in families.values()],
        )

    # ------------------------------------------------------------------
    # Persistent store (the durable tier under the memo cache)
    # ------------------------------------------------------------------

    def _store_preload(
        self, pending: dict[tuple, ExperimentConfig]
    ) -> dict[tuple, ExperimentConfig]:
        """Absorb store entries for claimed keys; returns what stays cold.

        Runs before planning, so a fully warm restart never touches the
        model at all.  Absorbed keys leave the single-flight table at once
        (their results are in ``_results``) but the batch's event stays
        unset until the whole batch ends.
        """
        with obs.span("store.preload"):
            found = self.store.get_many(list(pending))
        if not found:
            return pending
        with self._lock:
            self._results.update(found)
            for key in found:
                self._inflight.pop(key, None)
        return {k: c for k, c in pending.items() if k not in found}

    def _publish_store(self, items: dict) -> None:
        """Publish one committed family to the store.

        Called after its results are memoised, so the store is a strict
        subset of what this process would serve from memory -- never
        ahead of it.
        """
        if self.store is None or not items:
            return
        with obs.span("store.publish"):
            self.store.put_many(items)

    def _execute_groups(
        self, groups: list[list[ExperimentConfig]], group_keys: list[list[tuple]]
    ) -> None:
        """Execute cold families: one planner pass, else one family at a time.

        Group spans are opened up front, in family order, so the span
        tree's shape is the same on both paths.  Handles whose family
        never executes (those after a family or commit that raised) are
        abandoned in the ``finally``, so the tree stays a pure function
        of the work actually performed.
        """
        handles = [
            obs.open_span(f"group[{group[0].kernel}/{group[0].npb_class}]")
            for group in groups
        ]
        executed = [False] * len(groups)
        try:
            if self.planner and self._execute_groups_planned(
                groups, group_keys, handles, executed
            ):
                return
            for i, (group, keys, handle) in enumerate(zip(groups, group_keys, handles)):
                executed[i] = True
                self._execute_group(group, keys, handle)
        finally:
            for done, handle in zip(executed, handles):
                if not done:
                    obs.abandon_span(handle)

    def _execute_groups_planned(
        self,
        groups: list[list[ExperimentConfig]],
        group_keys: list[list[tuple]],
        handles: list,
        executed: list[bool],
    ) -> bool:
        """One flat megagrid pass over every cold family; True on success.

        The planner computes outcomes side-effect free; each family is
        then committed under its pre-opened span with exactly the
        counters the per-family path would have emitted, so caches,
        store entries and telemetry are indistinguishable.  A refusal
        (:class:`PlanNotApplicable`) happens before any work or side
        effect, and the caller falls back to the per-family path.
        """
        try:
            outcomes = plan_groups(self.runner, groups)
        except PlanNotApplicable:
            return False
        for i, (keys, handle, outcome) in enumerate(zip(group_keys, handles, outcomes)):
            executed[i] = True
            self._commit_group(keys, handle, outcome)
        return True

    def _commit_group(self, keys: list[tuple], span_handle, outcome) -> None:
        """Store one planned family exactly as per-family execution would.

        ``keys`` are the family's cache keys, in config order; ``outcome``
        is its shared :class:`DNRError` verdict or its result list.
        Counters and the activated span mirror :meth:`_execute_group`
        plus the ``model.batch_*`` counters the runner would have emitted
        inside ``run_many``.
        """
        with obs.activate(span_handle):
            obs.incr("model.batch_calls")
            obs.incr("model.batch_points", len(keys))
            self._commit_outcome(keys, outcome)

    def _commit_outcome(self, keys: list[tuple], outcome) -> None:
        """Memoise and publish one family's outcome, then notify.

        ``outcome`` is the family's shared :class:`DNRError` (counted as
        ``sweep.dnr_raises``) or its result list.
        """
        dnr = isinstance(outcome, DNRError)
        if dnr:
            obs.incr("sweep.dnr_raises")
            store = dict.fromkeys(keys, outcome)
        else:
            obs.incr("sweep.groups_executed")
            obs.incr("sweep.configs_executed", len(keys))
            store = dict(zip(keys, outcome))
        with self._lock:
            self._results.update(store)
        self._publish_store(store)
        self._notify_family(len(keys), dnr=dnr)

    def _execute_group(
        self, group: list[ExperimentConfig], keys: list[tuple], span_handle=None
    ) -> None:
        """Run one thread-sweep family and store its results (or its DNR).

        Anything other than a :class:`DNRError` propagates unchanged, and
        nothing of the family is stored.
        """
        with obs.activate(span_handle):
            try:
                outcome = self.runner.run_many(group)
            except DNRError as exc:
                # DNR is a property of (machine, kernel, class), independent
                # of thread count -- the whole family shares the verdict.
                outcome = exc
            self._commit_outcome(keys, outcome)

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """Memoised single-config execution (raises on DNR, like the runner)."""
        return self.run_many([config], on_dnr="raise")[0]

    def try_run(self, config: ExperimentConfig) -> ExperimentResult | None:
        """Like :meth:`run` but returns ``None`` for DNR configs."""
        return self.run_many([config], on_dnr="none")[0]

    def sweep_threads(
        self, config: ExperimentConfig, thread_counts: Iterable[int]
    ) -> list[ExperimentResult]:
        """Memoised thread-count sweep (one figure line in the paper)."""
        return self.run_many(
            [config.with_threads(n) for n in thread_counts]
        )


# ----------------------------------------------------------------------
# Process-wide default engine (what the harness and CLI share)
# ----------------------------------------------------------------------

_default_engine: SweepEngine | None = None
_default_lock = threading.Lock()


def default_engine() -> SweepEngine:
    """The shared engine the table/figure regenerators execute through.

    Sharing one engine means regenerating Table 3 warms the cache for
    Table 4's identical single-thread column, and the figures reuse both.
    """
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = SweepEngine()
        return _default_engine


def set_default_store(store) -> None:
    """Attach a persistent result store to the shared engine (``--store``).

    Accepts a :class:`repro.store.ResultStore`, a directory path, or
    ``None`` to detach (an explicit ``None`` detaches rather than
    re-reading the environment: the flag wins over ``REPRO_STORE``).
    """
    engine = default_engine()
    engine.store = None if store is None else SweepEngine._resolve_store(store)


def clear_caches() -> None:
    """Evict every process-wide cache this package maintains.

    Covers the default engine's memoised results, the performance model's
    calibration anchors, the CG system-matrix, cachesim trace and stall
    profile caches, and the memoised machine/compiler/signature getters.
    Mainly a test and long-lived-process escape hatch: caches never go
    stale in normal use because every key captures all inputs.
    """
    from repro.cachesim.stats import clear_profile_cache
    from repro.cachesim.trace import clear_trace_cache
    from repro.compilers.gcc import default_compiler_for, get_compiler
    from repro.machines.catalog import get_machine
    from repro.npb.cg import clear_matrix_cache
    from repro.npb.signatures import signature_for

    with _default_lock:
        engine = _default_engine
    if engine is not None:
        engine.clear_cache()
        engine.runner.model.clear_cache()
    clear_matrix_cache()
    clear_trace_cache()
    clear_profile_cache()
    signature_for.cache_clear()
    get_machine.cache_clear()
    get_compiler.cache_clear()
    default_compiler_for.cache_clear()
