"""Result records for modelled experiment runs."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from .perfmodel import Prediction

__all__ = ["RunSample", "ExperimentResult"]


@dataclass(frozen=True, slots=True)
class RunSample:
    """One of the paper's "five independent runs"."""

    run_index: int
    time_s: float
    mops: float


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate of repeated runs of one configuration.

    The paper reports the average of five independent runs; we keep the
    samples so tests can check the dispersion the noise model injects.
    """

    machine: str
    kernel: str
    npb_class: str
    n_threads: int
    compiler: str
    vectorised: bool
    samples: tuple[RunSample, ...]
    prediction: Prediction
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("an experiment needs at least one run sample")

    @property
    def mean_mops(self) -> float:
        return statistics.fmean(s.mops for s in self.samples)

    @property
    def mean_time_s(self) -> float:
        return statistics.fmean(s.time_s for s in self.samples)

    @property
    def stdev_mops(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return statistics.stdev(s.mops for s in self.samples)

    @property
    def cv_percent(self) -> float:
        """Coefficient of variation of the run samples, in percent."""
        mean_mops = self.mean_mops
        return 100.0 * self.stdev_mops / mean_mops if mean_mops else 0.0

    def summary(self) -> str:
        vec = "vec" if self.vectorised else "no-vec"
        return (
            f"{self.kernel.upper()}.{self.npb_class} on {self.machine} "
            f"x{self.n_threads} ({self.compiler}, {vec}): "
            f"{self.mean_mops:.2f} Mop/s (n={len(self.samples)}, "
            f"cv={self.cv_percent:.1f}%)"
        )
