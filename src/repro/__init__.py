"""repro -- reproduction of "Is RISC-V ready for High Performance
Computing? An evaluation of the Sophon SG2044" (Brown, SC 2025).

The package pairs a functional NumPy implementation of the NAS Parallel
Benchmarks (plus STREAM) with an analytic multi-core performance model of
the eleven CPUs the paper measures, and a harness that regenerates every
table and figure.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-model numbers.

Quickstart
----------
>>> from repro import ExperimentConfig, ExperimentRunner
>>> runner = ExperimentRunner()
>>> r = runner.run(ExperimentConfig(machine="sg2044", kernel="ep", n_threads=64))
>>> r.mean_mops  # doctest: +SKIP
2538.0

The names below resolve lazily (PEP 562, :mod:`repro._lazy`): importing
``repro`` loads no submodule, so ``import repro.machines`` does not drag
in the sweep engine and each CLI command imports only what it runs.
``from repro import ExperimentConfig`` loads the model stack on first
use, exactly as before.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "DNRError",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "NPBClass",
    "PerformanceModel",
    "__version__",
    "get_machine",
    "machine_names",
    "signature_for",
    "times_faster",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".core": (
            "DNRError",
            "ExperimentConfig",
            "ExperimentResult",
            "ExperimentRunner",
            "PerformanceModel",
            "times_faster",
        ),
        ".machines": ("get_machine", "machine_names"),
        ".npb": ("NPBClass", "signature_for"),
    },
)
