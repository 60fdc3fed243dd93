"""The reproduction's core: workload signatures, the analytic performance
model, calibration anchors, and the experiment-runner protocol.

Every name in ``__all__`` resolves lazily from its submodule on first
access (PEP 562, :mod:`repro._lazy`), so ``import repro.core.signature``
loads the signature dataclasses alone -- not the sweep engine, planner,
calibration and compiler model that ``from repro.core import
SweepEngine`` brings in.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ANCHORS",
    "Anchor",
    "CommPattern",
    "DEFAULT_RUNS",
    "DNRError",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "KernelSignature",
    "PerformanceModel",
    "Prediction",
    "RunSample",
    "SweepEngine",
    "anchor_for",
    "calibration_factors",
    "clear_caches",
    "crossover_threads",
    "default_engine",
    "expand_grid",
    "paper_vectorise",
    "parallel_efficiency",
    "percent_of",
    "speedup_curve",
    "times_faster",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".calibration": ("ANCHORS", "Anchor", "anchor_for", "calibration_factors"),
        ".experiment": ("DEFAULT_RUNS", "ExperimentConfig", "ExperimentRunner"),
        ".metrics": (
            "crossover_threads",
            "parallel_efficiency",
            "percent_of",
            "speedup_curve",
            "times_faster",
        ),
        ".perfmodel": ("DNRError", "PerformanceModel", "Prediction"),
        ".results": ("ExperimentResult", "RunSample"),
        ".signature": ("CommPattern", "KernelSignature"),
        ".sweep": (
            "SweepEngine",
            "clear_caches",
            "default_engine",
            "expand_grid",
            "paper_vectorise",
        ),
    },
)
