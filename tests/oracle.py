"""Reference oracle for the planner: one config at a time, no batching.

The planner (:func:`repro.core.plan.plan_groups`) is the only route from
configs to results.  This oracle is the per-config route it replaced,
copied here: the public :meth:`PerformanceModel.predict` for the
prediction, then ``config.runs`` lognormal draws from the config's own
``np.random.default_rng(measurement_seed(...))`` stream around it.  The
planner must reproduce it bit for bit.
"""

import numpy as np

from repro.compilers.gcc import get_compiler
from repro.core.experiment import ExperimentConfig, ExperimentRunner, measurement_seed
from repro.core.results import ExperimentResult, RunSample
from repro.machines.catalog import get_machine
from repro.npb.signatures import signature_for


def scalar_run(runner: ExperimentRunner, config: ExperimentConfig) -> ExperimentResult:
    """``config`` under ``runner``'s settings; raises ``DNRError`` like the runner."""
    signature = signature_for(config.kernel, config.npb_class)
    compiler_name = config.resolved_compiler()
    prediction = runner.model.predict(
        get_machine(config.machine),
        signature,
        get_compiler(compiler_name),
        config.n_threads,
        config.vectorise,
    )
    rng = np.random.default_rng(measurement_seed(runner.seed, config, compiler_name))
    cv = runner.noise_cv * (1.0 + 0.3 * np.log2(config.n_threads + 1))
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
