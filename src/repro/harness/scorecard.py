"""Reproduction scorecard: quantified model-vs-paper agreement.

Computes, for every table with published numbers, the mean and maximum
absolute relative error of the model against the paper, separating
*anchored* quantities (calibrated single-core points -- must be ~0) from
*emergent* ones (multi-core rates, ratios, stall percentages -- the actual
test of the model).  ``python -m repro score`` prints it; the test suite
pins acceptable bounds so a regression in any subsystem shows up as a
score change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.stats import table1_profile
from repro.core.experiment import ExperimentConfig, ExperimentRunner

from . import paper

__all__ = ["Score", "scorecard"]


@dataclass(frozen=True)
class Score:
    """Error statistics for one group of compared quantities."""

    name: str
    n_points: int
    mean_abs_rel_err: float
    max_abs_rel_err: float

    def summary(self) -> str:
        return (
            f"{self.name:<28} {self.n_points:>3} pts  "
            f"mean {100 * self.mean_abs_rel_err:5.1f}%  "
            f"max {100 * self.max_abs_rel_err:5.1f}%"
        )


def _score(name: str, pairs: list[tuple[float, float]]) -> Score:
    """Relative errors of (model, paper) pairs (paper as denominator)."""
    if not pairs:
        raise ValueError(f"no comparison points for {name}")
    errs = [abs(m - p) / abs(p) for m, p in pairs if p != 0]
    return Score(
        name=name,
        n_points=len(errs),
        mean_abs_rel_err=sum(errs) / len(errs),
        max_abs_rel_err=max(errs),
    )


def scorecard(table1_accesses: int = 40_000) -> list[Score]:
    """Compute the full scorecard (anchored and emergent groups)."""

    def config(machine, kernel, n, npb_class="C", **kw):
        kw.setdefault("vectorise", kernel != "cg")
        return ExperimentConfig(
            machine=machine, kernel=kernel, npb_class=npb_class, n_threads=n, **kw
        )

    # Every compared point as (model config, paper value); Table 6 compares
    # the ratio of a (machine, SG2044) config pair.
    anchored = []  # Tables 2/3: calibrated single-core points.
    for kernel, row in paper.TABLE2.items():
        for machine, expected in row.items():
            if expected is None or machine == "sg2044":
                continue
            anchored.append((config(machine, kernel, 1, npb_class="B"), expected))
    for kernel, (a, b) in paper.TABLE3.items():
        anchored.append((config("sg2044", kernel, 1), a))
        anchored.append((config("sg2042", kernel, 1), b))
    table4 = []  # Emergent 64-core rates.
    for kernel, (a, b) in paper.TABLE4.items():
        table4.append((config("sg2044", kernel, 64), a))
        table4.append((config("sg2042", kernel, 64), b))
    table6 = []  # Emergent ratios.
    for app, by_cores in paper.TABLE6.items():
        for cores, row in by_cores.items():
            base = config("sg2044", app, cores)
            for machine, expected in row.items():
                if expected is not None:
                    table6.append(((config(machine, app, cores), base), expected))
    # Tables 7/8: compiler deltas (12.3.1 scalar cells are fitted, the
    # vec/no-vec columns and all 64-core behaviour are emergent).
    compilers = []
    for n, table in ((1, paper.TABLE7), (64, paper.TABLE8)):
        for kernel, (old, vec, novec) in table.items():
            compilers.append(
                (config("sg2044", kernel, n, compiler="gcc-12.3.1", vectorise=True), old)
            )
            compilers.append(
                (config("sg2044", kernel, n, compiler="gcc-15.2", vectorise=True), vec)
            )
            compilers.append(
                (config("sg2044", kernel, n, compiler="gcc-15.2", vectorise=False), novec)
            )

    # One noise-free engine batch for every point (None for DNR).
    wanted = [c for c, _ in anchored + table4 + compilers]
    wanted += [c for pair, _ in table6 for c in pair]
    results = ExperimentRunner(noise_cv=0.0).engine.run_many(wanted, on_dnr="none")
    mops = {c: None if r is None else r.mean_mops for c, r in zip(wanted, results)}

    # Table 1 (emergent): stall percentages, absolute-points error scaled
    # to a 0-100 range treated as relative to 100.
    profiles = table1_profile(n_accesses=table1_accesses)
    pairs = []
    for kernel, (pc, pd, pb) in paper.TABLE1.items():
        mc, md, mb = profiles[kernel].as_percentages()
        pairs.extend([(mc + 100.0, pc + 100.0), (md + 100.0, pd + 100.0), (mb + 100.0, pb + 100.0)])
    return [
        _score("Table 1 stall profile", pairs),
        _score("Tables 2+3 (anchored)", [(mops[c], p) for c, p in anchored]),
        _score("Table 4 (64-core, emergent)", [(mops[c], p) for c, p in table4]),
        _score(
            "Table 6 (ratios, emergent)",
            [(mops[got] / mops[base], p) for (got, base), p in table6],
        ),
        _score("Tables 7+8 (compilers)", [(mops[c], p) for c, p in compilers]),
    ]
