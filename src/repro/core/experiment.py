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
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.compilers.gcc import default_compiler_for, get_compiler
from repro.machines.catalog import get_machine

from .perfmodel import Prediction, PerformanceModel
from .results import ExperimentResult, RunSample

__all__ = [
    "ExperimentConfig",
    "ExperimentRunner",
    "DEFAULT_RUNS",
    "measurement_seed",
]

DEFAULT_RUNS = 5  # "All results represent the average of five independent runs"


def measurement_seed(
    base_seed: int, config: "ExperimentConfig", compiler_name: str
) -> int:
    """The per-config noise-stream seed: sha256 over the full config key.

    A process-stable hash (unlike builtin ``hash()`` on strings) keeps
    "measurements" reproducible across interpreter invocations.  Shared
    with the grid planner (:mod:`repro.core.plan`), which derives the
    identical PCG64 streams for a whole megagrid in bulk.
    """
    key = (
        f"{base_seed}|{config.machine}|{config.kernel}|{config.npb_class}"
        f"|{config.n_threads}|{compiler_name}|{config.vectorise}"
    )
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "little")


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

        Raises :class:`repro.core.perfmodel.DNRError` when the working set
        does not fit the machine (the paper's "DNR" entries).
        """
        from repro.npb.signatures import signature_for

        machine = get_machine(config.machine)
        signature = signature_for(config.kernel, config.npb_class)
        compiler_name = config.resolved_compiler()
        compiler = get_compiler(compiler_name)

        obs.incr("model.scalar_calls")
        prediction = self.model.predict(
            machine, signature, compiler, config.n_threads, config.vectorise
        )
        return self._measure(config, signature, prediction, compiler_name)

    def run_many(self, configs: list[ExperimentConfig]) -> list[ExperimentResult]:
        """Execute a batch of configurations through the vectorised model.

        Configs sharing everything but the thread count are grouped into a
        single :meth:`PerformanceModel.predict_batch` evaluation, so a
        whole thread sweep costs one model pass instead of one per point.
        Results come back in input order and are identical to calling
        :meth:`run` per config (the noise stream is keyed per config, not
        by execution order).
        """
        from repro.npb.signatures import signature_for

        predictions: dict[int, Prediction] = {}
        groups: dict[tuple, list[int]] = {}
        for idx, config in enumerate(configs):
            groups.setdefault(config.family_key(), []).append(idx)

        for fam, indices in groups.items():
            machine_name, kernel, npb_class, compiler_name, vectorise, _runs = fam
            machine = get_machine(machine_name)
            signature = signature_for(kernel, npb_class)
            compiler = get_compiler(compiler_name)
            thread_counts = [configs[i].n_threads for i in indices]
            obs.incr("model.batch_calls")
            obs.incr("model.batch_points", len(indices))
            preds = self.model.predict_batch(
                machine, signature, compiler, thread_counts, vectorise
            )
            for i, pred in zip(indices, preds):
                predictions[i] = pred

        results = []
        for idx, config in enumerate(configs):
            signature = signature_for(config.kernel, config.npb_class)
            results.append(
                self._measure(
                    config, signature, predictions[idx], config.resolved_compiler()
                )
            )
        return results

    def _measure(
        self,
        config: ExperimentConfig,
        signature,
        prediction: Prediction,
        compiler_name: str,
    ) -> ExperimentResult:
        """Draw the seeded noise samples around one prediction."""
        rng = np.random.default_rng(
            measurement_seed(self.seed, config, compiler_name)
        )
        cv = self.noise_cv * (1.0 + 0.3 * np.log2(config.n_threads + 1))
        # One batched draw; default_rng yields the same samples as
        # config.runs sequential scalar draws from the same stream.
        factors = rng.lognormal(mean=0.0, sigma=cv, size=config.runs)
        times = prediction.time_s * factors
        samples = tuple(
            RunSample(run_index=i, time_s=float(t), mops=signature.total_mops / float(t))
            for i, t in enumerate(times)
        )

        return ExperimentResult(
            machine=config.machine,
            kernel=config.kernel,
            npb_class=config.npb_class,
            n_threads=config.n_threads,
            compiler=compiler_name,
            vectorised=prediction.vectorised,
            samples=samples,
            prediction=prediction,
            notes=prediction.notes,
        )

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
