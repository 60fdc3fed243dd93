"""Experiment runner: the paper's measurement protocol over the model.

The paper's protocol (Section 5): OpenMP threads bound to distinct
physical cores, ``-O3``, five independent runs, report the average.  The
runner reproduces that protocol on top of :class:`PerformanceModel`,
adding a deterministic, seeded run-to-run noise term so that averages,
error bars and "same machine measured twice gives slightly different
numbers" behaviour all exist without real hardware.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.compilers.gcc import default_compiler_for

from .perfmodel import DNRError, PerformanceModel
from .results import ExperimentResult

__all__ = [
    "ExperimentConfig",
    "ExperimentRunner",
    "DEFAULT_RUNS",
    "measurement_seed",
    "family_seed_bytes",
]

DEFAULT_RUNS = 5  # "All results represent the average of five independent runs"


def measurement_seed(
    base_seed: int, config: "ExperimentConfig", compiler_name: str
) -> int:
    """The per-config noise-stream seed: sha256 over the full config key.

    A process-stable hash (unlike builtin ``hash()`` on strings) keeps
    "measurements" reproducible across interpreter invocations.  The
    grid planner (:mod:`repro.core.plan`) seeds each config's
    ``np.random.default_rng`` PCG64 stream from it, for a whole batch in
    bulk (:func:`family_seed_bytes`).
    """
    digest = family_seed_bytes(base_seed, config, compiler_name, (config.n_threads,))
    return int.from_bytes(digest, "little")


def family_seed_bytes(
    base_seed: int,
    config: "ExperimentConfig",
    compiler_name: str,
    thread_counts: Sequence[int],
) -> bytes:
    """:func:`measurement_seed` of ``config``'s family at each thread count.

    The seeds come as concatenated 8-byte little-endian words, ready for
    ``np.frombuffer(..., dtype="<u8")``; ``config.n_threads`` is ignored.
    """
    head = f"{base_seed}|{config.machine}|{config.kernel}|{config.npb_class}|"
    tail = f"|{compiler_name}|{config.vectorise}"
    return b"".join(
        hashlib.sha256(f"{head}{n}{tail}".encode()).digest()[:8] for n in thread_counts
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark configuration to run.

    ``compiler=None`` selects the machine's paper-default compiler
    (GCC 15.2 on the SG2044, the XuanTie fork on the SG2042, the site
    compilers elsewhere).
    """

    machine: str
    kernel: str
    npb_class: str = "C"
    n_threads: int = 1
    compiler: str | None = None
    vectorise: bool = True
    runs: int = DEFAULT_RUNS

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")

    def with_threads(self, n: int) -> "ExperimentConfig":
        return replace(self, n_threads=n)

    def resolved_compiler(self) -> str:
        return self.compiler or default_compiler_for(self.machine)

    def family_key(self) -> tuple:
        """The thread-sweep family this config belongs to.

        Configs identical in everything but ``n_threads`` form one
        family: one batched model evaluation, one sweep-engine group
        (and span), one shared DNR verdict, one store publication.
        """
        return (
            self.machine,
            self.kernel,
            self.npb_class,
            self.resolved_compiler(),
            self.vectorise,
            self.runs,
        )


class ExperimentRunner:
    """Runs configurations through the model with seeded measurement noise.

    Parameters
    ----------
    model:
        The performance model (calibrated by default).
    noise_cv:
        Run-to-run coefficient of variation.  Real NPB runs on dedicated
        nodes sit around 0.5-2%; noise grows mildly with thread count
        (more OS interference surface).
    seed:
        Base RNG seed; every (config, run) pair derives its own stream, so
        results are reproducible and order-independent.
    """

    def __init__(
        self,
        model: PerformanceModel | None = None,
        noise_cv: float = 0.01,
        seed: int = 2025_07,
    ) -> None:
        if noise_cv < 0 or noise_cv > 0.2:
            raise ValueError("noise_cv must be in [0, 0.2]")
        self.model = model or PerformanceModel()
        self.noise_cv = noise_cv
        self.seed = seed
        self._engine = None

    @property
    def engine(self):
        """Lazily constructed :class:`repro.core.sweep.SweepEngine` over
        this runner (memoising, batch-evaluating front-end)."""
        if self._engine is None:
            from .sweep import SweepEngine

            self._engine = SweepEngine(self)
        return self._engine

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """Execute one configuration (``config.runs`` modelled repetitions).

        A one-row :meth:`run_many` batch.  Raises
        :class:`repro.core.perfmodel.DNRError` when the working set does
        not fit the machine (the paper's "DNR" entries).
        """
        return self.run_many([config])[0]

    def run_many(self, configs: list[ExperimentConfig]) -> list[ExperimentResult]:
        """Execute a batch of configurations as one planner pass.

        Configs sharing everything but the thread count form one
        thread-sweep family, and every family is evaluated in one
        :func:`repro.core.plan.plan_groups` pass.  Results come back in
        input order and are identical to running each config alone (the
        noise stream is keyed per config, not by execution order).  A DNR
        config raises its family's :class:`DNRError`, the first in input
        order; an invalid thread count raises ``ValueError`` before any
        evaluation.
        """
        from .plan import plan_groups

        configs = list(configs)
        families: dict[tuple, list[int]] = {}
        for idx, config in enumerate(configs):
            families.setdefault(config.family_key(), []).append(idx)
        outcomes = plan_groups(
            self, [[configs[i] for i in indices] for indices in families.values()]
        )
        results: list = [None] * len(configs)
        for indices, outcome in zip(families.values(), outcomes):
            if isinstance(outcome, DNRError):
                raise outcome
            for i, result in zip(indices, outcome):
                results[i] = result
        return results

    def sweep_threads(
        self, config: ExperimentConfig, thread_counts: list[int]
    ) -> list[ExperimentResult]:
        """Run a thread-count sweep (one figure line in the paper).

        Routed through the sweep engine: the whole sweep is one batched
        model evaluation, and repeated sweeps hit the engine's result
        cache.
        """
        return self.engine.run_many(
            [config.with_threads(n) for n in thread_counts]
        )
