"""Batched sweep engine: grid expansion, memoisation, parallel execution.

The paper's methodology is one large cross-product sweep -- machines x
kernels x classes x thread counts x compilers x vectorisation -- and every
table and figure regenerator walks some slice of that grid.  This module
turns those walks into batch jobs:

* :func:`expand_grid` expands axis tuples into a deduplicated, ordered
  list of :class:`ExperimentConfig`.
* :class:`SweepEngine` executes config batches through
  :meth:`ExperimentRunner.run_many` (one vectorised model evaluation per
  thread-sweep family), optionally across a thread pool, and memoises
  every :class:`ExperimentResult` keyed by the exact seed/config tuple so
  repeated regenerators hit cache.

Determinism: the runner keys its noise stream per config (sha256 of seed
and config fields), so results are independent of execution order --
parallel, serial, cached and one-at-a-time runs are byte-identical.

Caching vs reproducibility: a cache hit returns the very object a cold
run would have computed, because everything that influences a result
(runner seed, noise level, calibration flag, config fields) is part of
the cache key.  :func:`clear_caches` evicts every process-wide cache if
isolation is ever needed.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro import faults, obs
from repro.faults import GroupTimeoutError, TransientError

from .experiment import DEFAULT_RUNS, ExperimentConfig, ExperimentRunner
from .perfmodel import DNRError, PerformanceModel
from .plan import PlanNotApplicable, plan_groups
from .results import ExperimentResult

__all__ = [
    "SweepEngine",
    "expand_grid",
    "paper_vectorise",
    "compute_cache_key",
    "default_engine",
    "set_default_jobs",
    "set_default_retries",
    "set_default_procs",
    "set_default_store",
    "clear_caches",
    "DEFAULT_RETRIES",
]

#: Transient failures are retried this many times by default (override
#: per engine, with ``REPRO_RETRIES``, or with the ``--retries`` flag).
DEFAULT_RETRIES = 2


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

    Module-level (not only an engine method) so process-shard workers,
    which reconstruct the runner from ``(seed, noise_cv, calibrate)``,
    derive byte-identical journal keys without an engine instance.
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
    """Memoising, optionally parallel front-end over an ExperimentRunner.

    Parameters
    ----------
    runner:
        The runner to execute through (a default calibrated runner when
        omitted).
    jobs:
        Worker threads for batch execution.  ``None`` reads the
        ``REPRO_JOBS`` environment variable, falling back to
        ``min(8, cpu_count)``.  ``1`` forces serial execution.
    retries:
        Retry budget for *transient* group failures
        (:class:`repro.faults.TransientError`, including injected
        faults).  ``None`` reads ``REPRO_RETRIES``, falling back to
        :data:`DEFAULT_RETRIES`.  Retries back off exponentially from
        ``backoff_s``.
    group_timeout_s:
        Per-group deadline for pooled execution; a group exceeding it
        raises :class:`repro.faults.GroupTimeoutError` (fatal, never
        silently re-run).  ``None`` (default) disables the deadline;
        serial execution cannot be preempted and ignores it.
    journal:
        Optional :class:`repro.faults.SweepJournal`; completed families
        are persisted as they land and preloaded on attach, so an
        interrupted run resumes from completed families.
    procs:
        Worker *processes* for cold batches: when ``> 1`` (and the
        planner is applicable) pending families are sharded round-robin
        across forked workers, each journaling to a per-shard sidecar
        merged by cache key on completion.  ``None`` reads
        ``REPRO_PROCS``, falling back to ``1`` (no sharding).
    planner:
        Whether cold batches may be flattened into one megagrid pass
        (:func:`repro.core.plan.plan_groups`) instead of per-family
        ``predict_batch`` calls.  ``None`` reads ``REPRO_PLANNER``
        (default on; set ``0`` to disable).  The planner is bypassed
        automatically whenever it could not reproduce the per-family
        path bit-for-bit (fault injection enabled, per-group timeouts,
        subclassed runners/models).
    store:
        Optional :class:`repro.store.ResultStore` (or a path to one;
        ``None`` reads ``REPRO_STORE``).  The durable tier under the
        memo cache: pending keys are preloaded from the store *before*
        planning, every committed family is published to it, and its
        O_EXCL lease files extend single-flight across processes -- a
        key another process is executing is waited on (bounded), then
        taken over if the owner died.  Store-restored values are
        bit-identical to computed ones (shared ``repr``-float codec).

    Results are memoised per exact (seed, noise, calibration, config)
    tuple; "Did Not Run" configurations cache their :class:`DNRError`
    the same way, so a grid with DNR holes is still cheap to re-expand.

    Failure taxonomy (see :mod:`repro.faults.taxonomy`): transient
    errors are retried in place, DNR verdicts are cached as results, and
    everything else propagates to the caller exactly once -- a failing
    group never triggers re-execution of groups that already completed,
    and its claims are released so the next caller can re-claim the key.

    Concurrency: the engine is safe to hammer from many threads.  A
    single-flight table (``_inflight``) guarantees each cache key is
    executed at most once even when concurrent :meth:`run_many` calls
    race on the same cold keys -- late arrivals wait on the claimant's
    event instead of duplicating work.  Each claimed batch has one
    completion event, shared by every key it claimed, so **subgrid
    containment** is the general case: a batch whose cold keys are all
    in flight under one claimant waits on that single event (counted by
    ``sweep.containment_waits``).

    Observability: cache hits/misses, executed configs/groups and DNR
    outcomes are mirrored into :mod:`repro.obs` counters, and every
    batch runs under a ``run_many`` span with one ``group[kernel/class]``
    child per thread-sweep family.  ``dnr_configs`` counts, on the return
    path, every requested config whose (possibly cached) result is a DNR.
    """

    def __init__(
        self,
        runner: ExperimentRunner | None = None,
        jobs: int | None = None,
        retries: int | None = None,
        backoff_s: float = 0.02,
        group_timeout_s: float | None = None,
        journal=None,
        procs: int | None = None,
        planner: bool | None = None,
        store=None,
    ) -> None:
        self.runner = runner or ExperimentRunner()
        self.jobs = self._resolve_jobs(jobs)
        self.procs = self._resolve_procs(procs)
        self.planner = self._resolve_planner(planner)
        self.retries = self._resolve_retries(retries)
        self.store = self._resolve_store(store)
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        self.backoff_s = backoff_s
        self.group_timeout_s = group_timeout_s
        self._sleep = time.sleep
        self._results: dict[tuple, ExperimentResult | DNRError] = {}
        self._inflight: dict[tuple, threading.Event] = {}
        self._held_leases: set[tuple] = set()
        self._lock = threading.Lock()
        self._journals: list[tuple[faults.SweepJournal, frozenset | None]] = []
        self._family_hooks: list = []
        self.hits = 0
        self.misses = 0
        self.dnr_configs = 0
        if journal is not None:
            self.attach_journal(journal)

    @staticmethod
    def _resolve_jobs(jobs: int | None) -> int:
        """Resolve the worker-thread count for batch execution.

        Explicit requests -- the ``jobs`` argument or the ``REPRO_JOBS``
        environment variable -- are honoured verbatim, with no upper
        cap: an operator who asks for 32 threads gets 32.  Only the
        *implicit* default is capped at ``min(8, cpu_count)``, because
        model evaluation is GIL-bound numpy and threads beyond a handful
        add scheduling overhead without throughput.  The value an engine
        actually resolved is surfaced by ``repro stats`` through the
        ``sweep.jobs_resolved`` counter.
        """
        if jobs is None:
            env = os.environ.get("REPRO_JOBS")
            if env is not None:
                jobs = int(env)
            else:
                jobs = min(8, os.cpu_count() or 1)
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        return jobs

    @staticmethod
    def _resolve_procs(procs: int | None) -> int:
        """Resolve the worker-process count (``REPRO_PROCS``, default 1).

        Unlike ``jobs`` there is no implicit multi-proc default: forking
        is a behaviour change an operator opts into via the argument,
        the ``--procs`` flag or the environment.  Surfaced by ``repro
        stats`` as ``sweep.procs_resolved``.
        """
        if procs is None:
            env = os.environ.get("REPRO_PROCS")
            procs = int(env) if env is not None else 1
        if procs < 1:
            raise ValueError("procs must be >= 1")
        return procs

    @staticmethod
    def _resolve_planner(planner: bool | None) -> bool:
        if planner is None:
            return os.environ.get("REPRO_PLANNER", "1") != "0"
        return bool(planner)

    @staticmethod
    def _resolve_retries(retries: int | None) -> int:
        if retries is None:
            env = os.environ.get("REPRO_RETRIES")
            retries = int(env) if env is not None else DEFAULT_RETRIES
        if retries < 0:
            raise ValueError("retries must be >= 0")
        return retries

    @staticmethod
    def _resolve_store(store):
        """Resolve the persistent result store (``REPRO_STORE``, default none).

        Accepts a ready :class:`repro.store.ResultStore`, a directory
        path, or ``None`` (consult the environment).  Like ``procs``,
        persistence is a behaviour an operator opts into explicitly.
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

        The attached journal (if any) is deliberately left intact: it is
        the durable record an interrupted run resumes from.
        """
        with self._lock:
            self._results.clear()
            self.hits = 0
            self.misses = 0
            self.dnr_configs = 0

    # ------------------------------------------------------------------
    # Journal (checkpoint/resume)
    # ------------------------------------------------------------------

    def attach_journal(self, journal, keys=None) -> None:
        """Attach a :class:`repro.faults.SweepJournal` and preload it.

        Journaled results enter the memo cache exactly as if this engine
        had executed them (they are bit-identical by construction).  The
        journal's keys embed the runner seed, noise level and calibration
        flag, so entries written under different settings never match a
        key this engine asks for -- a stale journal is inert, not wrong.

        Several journals may be attached at once (the service layer gives
        every job its own); each completed family is recorded to all of
        them.  ``keys`` (an iterable of cache keys) scopes an attachment:
        only families whose keys intersect it are recorded there, so a
        per-job journal captures exactly that job's sweep and stays
        oblivious to whatever else shares the engine.  Preloading is
        never filtered -- a journal entry is valid cached work wherever
        it came from.

        Leftover per-shard sidecars (``<journal>.shardN``, from a
        sharded run that died before its merge) are folded into the
        attached journal here and removed.
        """
        keyset = None if keys is None else frozenset(keys)
        with self._lock:
            self._journals.append((journal, keyset))
            for key, value in journal.results().items():
                self._results.setdefault(key, value)
        self._absorb_shard_sidecars(journal)

    def _absorb_shard_sidecars(self, journal) -> None:
        """Merge and remove ``<journal>.shardN`` sidecar files.

        Sidecar entries are keyed by the same full cache keys as the
        main journal, so they merge (then vanish) exactly like a resumed
        main journal; entries from mismatched settings stay inert.
        """
        pattern = journal.path.name + ".shard*"
        for sidecar_path in sorted(journal.path.parent.glob(pattern)):
            entries = faults.SweepJournal(sidecar_path).results()
            if entries:
                journal.record(entries)
                with self._lock:
                    for key, value in entries.items():
                        self._results.setdefault(key, value)
            try:
                os.unlink(sidecar_path)
            except OSError:
                pass

    def detach_journal(self, journal=None) -> None:
        """Detach one journal (or, with no argument, every attached one).

        Already-loaded results stay cached either way.
        """
        with self._lock:
            if journal is None:
                self._journals.clear()
            else:
                self._journals = [
                    (j, keys) for j, keys in self._journals if j is not journal
                ]

    def _journal_record(self, store: dict) -> None:
        with self._lock:
            journals = list(self._journals)
        for journal, keys in journals:
            scoped = (
                store
                if keys is None
                else {k: v for k, v in store.items() if k in keys}
            )
            if scoped:
                journal.record(scoped)

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

        Hooks fire once per completed thread-sweep family -- planned,
        pooled, serial or process-sharded -- right after its results are
        stored and journaled, and always *outside* the engine lock, so a
        hook may freely call back into the engine.  ``dnr`` is True when
        the family's shared outcome was a DNR verdict.  Hook exceptions
        propagate like any fatal group failure: the engine never
        swallows them.
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
        """Execute a batch, memoised and (for cold work) parallelised.

        Every cache key is computed once, here, and handed down to the
        commit.  Cold keys are claimed under one single-flight event for
        the whole batch; keys another caller holds are waited on through
        that caller's batch event, once per distinct event.  Cold configs
        are grouped into thread-sweep families (identical in everything
        but ``n_threads``) and evaluated in one megagrid planner pass, or
        per family -- on a thread pool when more than one is pending and
        ``jobs > 1``, with a silent serial fallback if the pool cannot
        start.  Output order always matches input order.

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
        """Execute claimed configs grouped into families, then release claims.

        ``claim`` is the batch's one single-flight event.  It is set
        exactly once, in the ``finally``, after every claimed key has left
        the table -- also when the store absorbed the whole batch, and
        when execution fails, so waiters re-classify instead of blocking
        forever.  Keys absorbed from the store leave the table early but
        do not set it: the batch's other keys are still executing, and an
        early signal would only make their waiters spin.

        With a store attached, three things happen around execution, all
        outside the engine lock (the lock guards tables, never I/O):
        claimed keys are preloaded from the store before any planning,
        the remainder is partitioned by lease ownership (keys another
        process is executing are waited on in :meth:`_resolve_foreign`
        instead of executed), and held leases are released in the
        ``finally`` so a failure never wedges other processes.
        """
        claimed = pending
        try:
            foreign: dict[tuple, ExperimentConfig] = {}
            if self.store is not None:
                pending = self._store_preload(pending)
                if pending:
                    pending, foreign = self._store_partition(pending)
            if pending:
                self._execute_families(pending)
            if foreign:
                self._resolve_foreign(foreign)
        finally:
            # Leases first (publish already released the successful ones;
            # this catches failures), then claims; successful paths have
            # stored results by the time the event fires.
            self._release_leases(claimed)
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
    # Persistent store (cross-run cache + cross-process single-flight)
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

    def _store_partition(
        self, pending: dict[tuple, ExperimentConfig]
    ) -> tuple[dict[tuple, ExperimentConfig], dict[tuple, ExperimentConfig]]:
        """Split cold keys into locally-leased vs foreign-leased sets.

        The leased set is what :meth:`_recheck_leased` leaves of it: keys
        another process published between the preload read and our lease
        are absorbed, not executed again.
        """
        local: dict[tuple, ExperimentConfig] = {}
        foreign: dict[tuple, ExperimentConfig] = {}
        for key, config in pending.items():
            if self.store.try_lease(key):
                local[key] = config
            else:
                foreign[key] = config
        return self._recheck_leased(local), foreign

    def _recheck_leased(
        self, leased: dict[tuple, ExperimentConfig]
    ) -> dict[tuple, ExperimentConfig]:
        """Record fresh leases, then re-read the store for their keys.

        An owner publishes a family and only then releases its leases, so
        a key read as missing before our ``try_lease`` may have been
        published and released in between.  Any such hit is absorbed
        into the memo and its lease released at once; only the remainder
        is returned for execution.
        """
        if not leased:
            return leased
        with self._lock:
            self._held_leases.update(leased)
        found = self.store.get_many(list(leased))
        if not found:
            return leased
        with self._lock:
            self._results.update(found)
        self._release_leases(found)
        return {k: c for k, c in leased.items() if k not in found}

    def _release_leases(self, keys) -> None:
        """Release whichever of ``keys`` this engine still holds leases for."""
        if self.store is None:
            return
        with self._lock:
            held = [key for key in keys if key in self._held_leases]
            self._held_leases.difference_update(held)
        for key in held:
            self.store.release_lease(key)

    def _publish_store(self, items: dict) -> None:
        """Publish one committed family and release its execution leases.

        Called beside every ``_journal_record`` site, after results are
        memoised, so the store is a strict subset of what this process
        would serve from memory -- never ahead of it.
        """
        if self.store is None or not items:
            return
        with obs.span("store.publish"):
            self.store.put_many(items)
        self._release_leases(items)

    def _absorb_published(self, remaining: dict[tuple, ExperimentConfig]) -> None:
        """Pull any now-published entries for ``remaining`` into the memo."""
        found = self.store.get_many(list(remaining))
        if not found:
            return
        with self._lock:
            self._results.update(found)
        for key in found:
            remaining.pop(key, None)

    def _resolve_foreign(self, foreign: dict[tuple, ExperimentConfig]) -> None:
        """Wait (bounded) for keys leased by another process, else take over.

        The owner publishes each family then releases its leases, so the
        normal outcome is absorbing its entries mid-poll.  A lease that
        vanished without an entry means the owner failed: take it over
        immediately.  A lease still present after the full timeout means
        the owner is wedged: break it, re-claim, and execute -- liveness
        over economy, and exactness either way (results are pure
        functions of the key).  The wait is attempt-counted through the
        engine's injectable ``_sleep``; no wall clock is read.
        """
        store = self.store
        remaining = dict(foreign)
        obs.incr("store.lease_waits", len(remaining))
        attempts = max(1, int(store.lease_timeout_s / store.poll_interval_s))
        for _ in range(attempts):
            self._absorb_published(remaining)
            if not remaining:
                return
            orphaned = {
                key: config
                for key, config in remaining.items()
                if not store.lease_active(key)
            }
            if orphaned:
                claimed = {
                    key: config
                    for key, config in orphaned.items()
                    if store.try_lease(key)
                }
                if claimed:
                    for key in claimed:
                        remaining.pop(key)
                    obs.incr("store.lease_takeovers", len(claimed))
                    claimed = self._recheck_leased(claimed)
                    if claimed:
                        self._execute_families(claimed)
                if not remaining:
                    return
            self._sleep(store.poll_interval_s)
        self._absorb_published(remaining)
        if not remaining:
            return
        obs.incr("store.lease_timeouts", len(remaining))
        for key in remaining:
            store.break_lease(key)
        claimed = {
            key: config for key, config in remaining.items() if store.try_lease(key)
        }
        if claimed:
            obs.incr("store.lease_takeovers", len(claimed))
            with self._lock:
                self._held_leases.update(claimed)
        # Execute everything left -- re-leased or not -- so this batch
        # always completes even if another waiter re-claimed first.
        self._execute_families(remaining)

    def _planner_applicable(self) -> bool:
        """Whether cold batches may route through the flat megagrid pass.

        The planner cannot reproduce fault-injection probes (one
        ``faults.inject`` per family attempt) or per-group timeout
        preemption, so either forces the per-family path.  Subclassed
        runners/models are detected inside
        :func:`repro.core.plan.plan_groups` itself, which refuses with
        :class:`PlanNotApplicable` (for process sharding, where the
        worker never sees the parent's objects, :meth:`_runner_is_stock`
        re-checks up front).
        """
        return (
            self.planner
            and self.group_timeout_s is None
            and not faults.is_enabled()
        )

    def _runner_is_stock(self) -> bool:
        """Whether shard workers can reconstruct this runner exactly.

        Workers rebuild the runner from ``(seed, noise_cv, calibrate)``;
        that reconstruction is only faithful for the stock classes.
        """
        return (
            type(self.runner) is ExperimentRunner
            and type(self.runner.model) is PerformanceModel
        )

    def _execute_groups(
        self, groups: list[list[ExperimentConfig]], group_keys: list[list[tuple]]
    ) -> None:
        # Process sharding runs before any span handles are opened: shard
        # workers record the group spans themselves and the parent grafts
        # them, so pre-opened handles would double-count.
        if (
            self.procs > 1
            and len(groups) > 1
            and self._planner_applicable()
            and _fork_available()
        ):
            if self._execute_groups_sharded(groups):
                return
        # Group spans are opened here, in the submitting thread, so the
        # span tree's shape is identical for serial and parallel runs.
        # Handles whose group never executes (pool startup failure, a
        # fatal sibling) are abandoned in the finally, so the tree stays
        # a pure function of the work actually performed.
        handles = [
            obs.open_span(f"group[{group[0].kernel}/{group[0].npb_class}]")
            for group in groups
        ]
        executed = [False] * len(groups)
        try:
            if self._planner_applicable():
                if self._execute_groups_planned(groups, group_keys, handles, executed):
                    return
            if self.jobs > 1 and len(groups) > 1:
                if self._execute_groups_pooled(groups, group_keys, handles, executed):
                    return
            # Serial path: fresh groups, plus any the pool could not take
            # because *startup* failed.  Groups that already ran (or are
            # running) on the pool are never re-executed here.
            for i, (group, keys, handle) in enumerate(zip(groups, group_keys, handles)):
                if not executed[i]:
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
        journal entries and telemetry are indistinguishable.  A refusal
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
        """Memoise, journal and publish one family's outcome, then notify.

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
        self._journal_record(store)
        self._publish_store(store)
        self._notify_family(len(keys), dnr=dnr)

    def _execute_groups_sharded(self, groups: list[list[ExperimentConfig]]) -> bool:
        """Fan cold families out across forked worker processes.

        All-or-nothing: results, counters, span subtrees and main-journal
        entries are committed only after every shard returns, so a worker
        failure (or an environment that cannot fork) leaves no trace and
        the caller falls back to the in-process paths, which reproduce
        exact per-family semantics -- including re-raising whatever
        felled the worker.  Workers journal each completed family to a
        ``<journal>.shardN`` sidecar, so even the discarded partial work
        of a crashed run survives for :meth:`attach_journal` to absorb.
        """
        if not self._runner_is_stock():
            return False
        runner = self.runner
        # Sidecars are keyed off the first attached journal's path; with
        # none attached the shards run journal-free (results still merge
        # through the all-or-nothing commit below).
        with self._lock:
            journals = list(self._journals)
        base_path = str(journals[0][0].path) if journals else None
        procs = min(self.procs, len(groups))
        # Contiguous block shards (not round-robin): grafting the shard
        # span trees in shard order then reproduces the exact child
        # order the sequential path creates, keeping serialised span
        # trees byte-identical, not merely equivalent.
        shards: list[list[tuple[int, list[ExperimentConfig]]]] = []
        base, extra = divmod(len(groups), procs)
        start = 0
        for s in range(procs):
            size = base + (1 if s < extra else 0)
            shards.append([(i, groups[i]) for i in range(start, start + size)])
            start += size
        telemetry = obs.is_enabled()
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            pool = ProcessPoolExecutor(
                max_workers=procs,
                mp_context=multiprocessing.get_context("fork"),
            )
        except (RuntimeError, OSError, ValueError):
            return False
        merged: list = [None] * len(groups)
        counter_merge: dict[str, int] = {}
        span_merge: list[list[dict]] = []
        sidecars: list[str] = []
        ok = False
        try:
            futures = []
            for s, shard in enumerate(shards):
                sidecar = f"{base_path}.shard{s}" if base_path is not None else None
                payload = (
                    [group for _, group in shard],
                    runner.seed,
                    runner.noise_cv,
                    runner.model.calibrate,
                    telemetry,
                    sidecar,
                )
                try:
                    futures.append((shard, pool.submit(_shard_worker, payload)))
                except (RuntimeError, OSError):
                    return False
                if sidecar is not None:
                    sidecars.append(sidecar)
            for shard, future in futures:
                try:
                    outcomes, counters, children = future.result()
                except Exception:  # repro: noqa[R007] -- worker failures fall back to the in-process path, which re-raises with exact per-family semantics
                    return False
                for (i, _group), outcome in zip(shard, outcomes):
                    merged[i] = outcome
                for name, value in counters.items():
                    counter_merge[name] = counter_merge.get(name, 0) + value
                span_merge.append(children)
            ok = True
        finally:
            pool.shutdown(wait=ok, cancel_futures=not ok)
        for name in sorted(counter_merge):
            obs.incr(name, counter_merge[name])
        for children in span_merge:
            obs.graft_children(children)
        for group, outcome in zip(groups, merged):
            if isinstance(outcome, DNRError):
                store = {self.cache_key(c): outcome for c in group}
            else:
                store = dict(zip((self.cache_key(c) for c in group), outcome))
            with self._lock:
                self._results.update(store)
            self._journal_record(store)
            self._publish_store(store)
            self._notify_family(len(group), dnr=isinstance(outcome, DNRError))
        for sidecar in sidecars:
            try:
                os.unlink(sidecar)
            except OSError:
                pass
        return True

    def _make_pool(self, workers: int) -> ThreadPoolExecutor:
        """Pool construction, separated so tests can starve it."""
        return ThreadPoolExecutor(max_workers=workers)

    def _execute_groups_pooled(
        self,
        groups: list[list[ExperimentConfig]],
        group_keys: list[list[tuple]],
        handles: list,
        executed: list[bool],
    ) -> bool:
        """Run groups on a thread pool; returns True when nothing is left.

        Only *pool startup* failures (the executor or its worker threads
        cannot be created -- thread-starved environments, interpreter
        shutdown) fall back: ``False`` is returned with ``executed``
        marking what the pool did take, and the caller runs the
        remainder serially.  A failure raised *inside* a group is a
        result, not a startup problem: it propagates (after sibling
        groups finish and store their results) and nothing is re-run.
        """
        try:
            pool = self._make_pool(min(self.jobs, len(groups)))
        except (RuntimeError, OSError):
            return False  # executor never existed; nothing was executed
        futures = {}
        all_submitted = True
        for i, (group, keys, handle) in enumerate(zip(groups, group_keys, handles)):
            try:
                futures[i] = pool.submit(self._execute_group, group, keys, handle)
            except (RuntimeError, OSError):
                # Worker-thread startup failed.  Already-submitted groups
                # still run to completion below; the rest go serial.
                all_submitted = False
                break
            executed[i] = True
        try:
            for i, future in futures.items():
                try:
                    future.result(timeout=self.group_timeout_s)
                except FuturesTimeoutError:
                    # Cancel whatever has not started; groups already
                    # running cannot be preempted and are disowned.
                    for j, other in futures.items():
                        if other.cancel():
                            executed[j] = False
                    group = groups[i]
                    raise GroupTimeoutError(
                        f"group[{group[0].kernel}/{group[0].npb_class}] exceeded "
                        f"the {self.group_timeout_s}s group timeout"
                    ) from None
        except GroupTimeoutError:
            pool.shutdown(wait=False)
            raise
        except BaseException:
            # A group failed: let its siblings finish (their results are
            # stored and counted exactly once), then propagate.
            pool.shutdown(wait=True)
            raise
        pool.shutdown(wait=True)
        return all_submitted

    def _execute_group(
        self, group: list[ExperimentConfig], keys: list[tuple], span_handle=None
    ) -> None:
        """Run one thread-sweep family and store its results (or its DNR)."""
        with obs.activate(span_handle):
            try:
                outcome = self._run_group_resilient(group)
            except DNRError as exc:
                # DNR is a property of (machine, kernel, class), independent
                # of thread count -- the whole family shares the verdict.
                outcome = exc
            self._commit_outcome(keys, outcome)

    def _run_group_resilient(self, group: list[ExperimentConfig]):
        """One family through the runner, retrying transient failures.

        The installed fault plan is probed once per attempt (keyed by the
        family, so schedules are execution-order independent).  Transient
        failures -- injected or raised by the runner itself -- back off
        exponentially from ``backoff_s`` and retry up to ``retries``
        times; every other exception propagates to the caller unchanged.
        """
        site_key = "/".join(str(part) for part in group[0].family_key())
        attempt = 0
        while True:
            try:
                faults.inject("sweep.group", site_key)
                return self.runner.run_many(group)
            except TransientError:
                if attempt >= self.retries:
                    raise
                attempt += 1
                obs.incr("sweep.retries")
                self._sleep(self.backoff_s * (2 ** (attempt - 1)))

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
# Process-shard workers (module-level for pickling across the fork)
# ----------------------------------------------------------------------


def _fork_available() -> bool:
    """Whether this platform can fork shard workers at all."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _reinit_forked_locks() -> None:
    """Give a forked shard worker fresh module-level locks.

    ``fork`` snapshots lock state: a lock some other parent thread
    happened to hold at fork time would be held forever in the child.
    Every process-wide lock in the package is rebound here, at worker
    startup, before anything in the child can take one.
    """
    import repro.cachesim.stats as _stats
    import repro.cachesim.trace as _trace
    import repro.faults.plan as _faults_plan
    import repro.npb.cg as _cg
    import repro.npb.ep as _ep
    import repro.obs as _obs

    from . import plan as _plan

    global _default_lock, _default_engine
    _obs._recorder_lock = threading.Lock()
    _faults_plan._plan_lock = threading.Lock()
    _stats._profile_lock = threading.Lock()
    _trace._trace_lock = threading.Lock()
    _cg._matrix_lock = threading.Lock()
    _ep._golden_lock = threading.Lock()
    _plan._fastpath_lock = threading.Lock()
    _default_lock = threading.Lock()  # repro: noqa[R002] -- freshly forked child is single-threaded; the stale lock being replaced is itself the hazard
    with _default_lock:
        # The inherited default engine carries the parent's (possibly
        # held) instance locks; drop it so any use in the child starts
        # from a clean engine.
        _default_engine = None


def _shard_worker(payload: tuple):
    """Evaluate one shard of thread-sweep families in a forked child.

    Reconstructs a stock runner from the parent's ``(seed, noise_cv,
    calibrate)`` triple (faithful by the parent's ``_runner_is_stock``
    gate), evaluates its families through the planner with a per-family
    fallback, and emits per-group telemetry into a private recorder
    whose counters and span children the parent merges deterministically.
    Completed families are journaled to the per-shard sidecar as they
    land, so a crash after partial progress still leaves resumable
    state.  Non-DNR errors propagate to the parent, which discards the
    whole sharded attempt and re-executes in process.
    """
    groups, seed, noise_cv, calibrate, telemetry, sidecar = payload
    _reinit_forked_locks()
    recorder = obs.install() if telemetry else None
    if recorder is None:
        obs.disable()
    runner = ExperimentRunner(
        model=PerformanceModel(calibrate=calibrate), noise_cv=noise_cv, seed=seed
    )
    journal = faults.SweepJournal(sidecar) if sidecar is not None else None
    try:
        planned = plan_groups(runner, groups)
    except PlanNotApplicable:
        planned = None
    outcomes = []
    for idx, group in enumerate(groups):
        handle = obs.open_span(f"group[{group[0].kernel}/{group[0].npb_class}]")
        with obs.activate(handle):
            if planned is not None:
                outcome = planned[idx]
                obs.incr("model.batch_calls")
                obs.incr("model.batch_points", len(group))
            else:
                try:
                    outcome = runner.run_many(group)
                except DNRError as exc:
                    outcome = exc
            if isinstance(outcome, DNRError):
                obs.incr("sweep.dnr_raises")
                store = {
                    compute_cache_key(seed, noise_cv, calibrate, c): outcome
                    for c in group
                }
            else:
                obs.incr("sweep.groups_executed")
                obs.incr("sweep.configs_executed", len(group))
                store = dict(
                    zip(
                        (
                            compute_cache_key(seed, noise_cv, calibrate, c)
                            for c in group
                        ),
                        outcome,
                    )
                )
            if journal is not None:
                journal.record(store)
        outcomes.append(outcome)
    if recorder is not None:
        counters = recorder.counters_snapshot()
        children = recorder.span_tree()["children"]
    else:
        counters, children = {}, []
    return outcomes, counters, children


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


def set_default_jobs(jobs: int | None) -> None:
    """Set worker-thread count on the shared engine (the ``--jobs`` flag)."""
    engine = default_engine()
    engine.jobs = SweepEngine._resolve_jobs(jobs)


def set_default_retries(retries: int | None) -> None:
    """Set the transient-retry budget on the shared engine (``--retries``)."""
    engine = default_engine()
    engine.retries = SweepEngine._resolve_retries(retries)


def set_default_procs(procs: int | None) -> None:
    """Set worker-process count on the shared engine (the ``--procs`` flag)."""
    engine = default_engine()
    engine.procs = SweepEngine._resolve_procs(procs)


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
