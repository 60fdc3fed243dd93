"""Regenerators for every table in the paper's evaluation.

Each ``tableN()`` returns a :class:`TableResult` carrying the modelled
rows, the paper's published values alongside, and a renderer.  The
``benchmarks/`` directory has one pytest-benchmark target per table that
calls these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.cachesim.stats import table1_profile
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import percent_of, times_faster
from repro.core.sweep import SweepEngine, default_engine, expand_grid, paper_vectorise
from repro.machines.catalog import (
    PAPER_RISCV_BOARDS,
    all_machines,
    get_machine,
)

from . import paper
from .report import render_csv, render_table

__all__ = [
    "TableResult",
    "table_grid",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "TABLE_BUILDERS",
    "build_table",
]


@dataclass
class TableResult:
    """One regenerated table: headers, rows, and provenance."""

    number: int
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        body = render_table(f"Table {self.number}: {self.title}", self.headers, self.rows)
        if self.notes:
            body += "".join(f"  note: {n}\n" for n in self.notes)
        return body

    def to_csv(self) -> str:
        return render_csv(self.headers, self.rows)


def _mops(
    engine: SweepEngine,
    machine: str,
    kernel: str,
    npb_class: str,
    n_threads: int,
    compiler: str | None = None,
    vectorise: bool | None = None,
) -> float | None:
    """Mean Mop/s for a configuration, or None for a DNR.

    The prefetch in each table builder has already batch-executed the
    table's whole grid, so these per-cell calls are cache hits.
    """
    if vectorise is None:
        # The paper disables vectorisation for CG (Section 6 pathology).
        vectorise = paper_vectorise(kernel)
    result = engine.try_run(
        ExperimentConfig(
            machine=machine,
            kernel=kernel,
            npb_class=npb_class,
            n_threads=n_threads,
            compiler=compiler,
            vectorise=vectorise,
        )
    )
    return None if result is None else result.mean_mops


# ----------------------------------------------------------------------
# Per-table prefetch grids.  Each builder batch-executes its whole grid
# up front; exposing the grids separately lets callers regenerating
# several artifacts (``repro export``, a full paper run) flatten them
# into ONE ``run_many`` megagrid -- a single planner pass -- after
# which the per-table prefetches below are pure cache hits.


def _table2_grid() -> list[ExperimentConfig]:
    return expand_grid(PAPER_RISCV_BOARDS, paper.KERNELS, classes="B", thread_counts=1)


def _table3_grid() -> list[ExperimentConfig]:
    return expand_grid(("sg2044", "sg2042"), paper.KERNELS, classes="C", thread_counts=1)


def _table4_grid() -> list[ExperimentConfig]:
    return expand_grid(("sg2044", "sg2042"), paper.KERNELS, classes="C", thread_counts=64)


def _table6_grid() -> list[ExperimentConfig]:
    machines = ("sg2044", "sg2042", "epyc7742", "skylake8170", "thunderx2")
    return [
        ExperimentConfig(
            machine=m,
            kernel=app,
            npb_class="C",
            n_threads=cores,
            vectorise=paper_vectorise(app),
        )
        for app in paper.PSEUDO_APPS
        for cores in (16, 26, 32, 64)
        for m in machines
        if cores <= get_machine(m).n_cores
    ]


def _compiler_grid(n_threads: int) -> list[ExperimentConfig]:
    combos = (("gcc-12.3.1", True), ("gcc-15.2", True), ("gcc-15.2", False))
    return [
        ExperimentConfig(
            machine="sg2044",
            kernel=kernel,
            npb_class="C",
            n_threads=n_threads,
            compiler=compiler,
            vectorise=vec,
        )
        for kernel in paper.KERNELS
        for compiler, vec in combos
    ]


def table_grid(number: int) -> list[ExperimentConfig]:
    """The experiment grid ``tableN()`` prefetches (empty when none).

    Tables 1 and 5 need no sweep (trace simulation / catalog data), so
    their grids are empty.
    """
    if number not in TABLE_BUILDERS:
        raise KeyError(f"the paper has tables 1-8; no table {number}")
    builder = _TABLE_GRIDS.get(number)
    return [] if builder is None else builder()


def table1(
    n_accesses: int = 60_000, engine: SweepEngine | None = None
) -> TableResult:
    """NPB memory behaviour on the Xeon 8170 (trace-driven simulation).

    ``engine`` is accepted for signature uniformity with the other
    builders (the trace simulation never touches the sweep engine).
    """
    profiles = table1_profile(n_accesses=n_accesses)
    rows: list[list[object]] = []
    for kernel in ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"):
        c, d, b = profiles[kernel].as_percentages()
        pc, pd, pb = paper.TABLE1[kernel]
        rows.append([kernel.upper(), c, pc, d, pd, b, pb])
    return TableResult(
        number=1,
        title="Memory behaviour of NPB kernels on Xeon Platinum 8170",
        headers=[
            "Benchmark",
            "cache stall %",
            "(paper)",
            "DDR stall %",
            "(paper)",
            "BW-bound %",
            "(paper)",
        ],
        rows=rows,
        notes=["trace-driven simulation of a downscaled Skylake-SP hierarchy"],
    )


def table2(engine: SweepEngine | None = None) -> TableResult:
    """Single-core RISC-V comparison, class B (incl. the D1's FT DNR)."""
    engine = engine if engine is not None else default_engine()
    engine.run_many(_table2_grid(), on_dnr="none")
    rows: list[list[object]] = []
    for kernel in paper.KERNELS:
        ref = _mops(engine, "sg2044", kernel, "B", 1)
        assert ref is not None
        row: list[object] = [kernel.upper()]
        for machine in PAPER_RISCV_BOARDS:
            mops = _mops(engine, machine, kernel, "B", 1)
            row.append(mops)
            if machine != "sg2044":
                row.append(
                    None if mops is None else round(percent_of(mops, ref))
                )
        rows.append(row)
    headers = ["Benchmark", "SG2044"]
    for machine in PAPER_RISCV_BOARDS[1:]:
        headers += [get_machine(machine).label, "%"]
    return TableResult(
        number=2,
        title="Single-core comparison between RISC-V boards (class B, Mop/s)",
        headers=headers,
        rows=rows,
        notes=["percentages are relative to the SG2044's C920v2 core"],
    )


def table3(engine: SweepEngine | None = None) -> TableResult:
    """SG2044 vs SG2042, single core, class C."""
    engine = engine if engine is not None else default_engine()
    engine.run_many(_table3_grid())
    rows: list[list[object]] = []
    for kernel in paper.KERNELS:
        a = _mops(engine, "sg2044", kernel, "C", 1)
        b = _mops(engine, "sg2042", kernel, "C", 1)
        assert a is not None and b is not None
        pa, pb = paper.TABLE3[kernel]
        rows.append(
            [kernel.upper(), a, b, times_faster(a, b), times_faster(pa, pb)]
        )
    return TableResult(
        number=3,
        title="SG2044 vs SG2042, single core, class C (Mop/s)",
        headers=["Benchmark", "SG2044", "SG2042", "times faster", "(paper)"],
        rows=rows,
    )


def table4(engine: SweepEngine | None = None) -> TableResult:
    """SG2044 vs SG2042, 64 cores, class C (the 1.52x-4.91x headline)."""
    engine = engine if engine is not None else default_engine()
    engine.run_many(_table4_grid())
    rows: list[list[object]] = []
    for kernel in paper.KERNELS:
        a = _mops(engine, "sg2044", kernel, "C", 64)
        b = _mops(engine, "sg2042", kernel, "C", 64)
        assert a is not None and b is not None
        pa, pb = paper.TABLE4[kernel]
        rows.append(
            [kernel.upper(), a, b, times_faster(a, b), times_faster(pa, pb)]
        )
    return TableResult(
        number=4,
        title="SG2044 vs SG2042, all 64 cores, class C (Mop/s)",
        headers=["Benchmark", "SG2044", "SG2042", "times faster", "(paper)"],
        rows=rows,
    )


def table5(engine: SweepEngine | None = None) -> TableResult:
    """The CPU overview table (straight from the machine catalog)."""
    rows: list[list[object]] = []
    for machine in all_machines():
        if machine.name not in (
            "epyc7742",
            "skylake8170",
            "thunderx2",
            "sg2042",
            "sg2044",
        ):
            continue
        d = machine.describe()
        rows.append(
            [d["CPU"], d["ISA"], d["Part"], d["Base clock"], d["Cores"], d["Vector"]]
        )
    return TableResult(
        number=5,
        title="Overview of the CPUs compared in Section 5",
        headers=["CPU", "ISA", "Part", "Base clock", "Cores", "Vector"],
        rows=rows,
    )


def table6(engine: SweepEngine | None = None) -> TableResult:
    """Pseudo-app relative runtimes vs the SG2044 at 16/26/32/64 cores."""
    engine = engine if engine is not None else default_engine()
    rows: list[list[object]] = []
    machines = ("sg2042", "epyc7742", "skylake8170", "thunderx2")
    engine.run_many(_table6_grid(), on_dnr="none")
    for app in paper.PSEUDO_APPS:
        for cores in (16, 26, 32, 64):
            base = _mops(engine, "sg2044", app, "C", cores)
            assert base is not None
            row: list[object] = [app.upper(), cores]
            for m in machines:
                if cores > get_machine(m).n_cores:
                    row += [None, paper.TABLE6[app][cores][m]]
                    continue
                mops = _mops(engine, m, app, "C", cores)
                ratio = None if mops is None else times_faster(mops, base)
                row += [ratio, paper.TABLE6[app][cores][m]]
            rows.append(row)
    headers = ["App", "Cores"]
    for m in machines:
        headers += [get_machine(m).label, "(paper)"]
    return TableResult(
        number=6,
        title="Times faster than the SG2044 on BT/LU/SP (class C)",
        headers=headers,
        rows=rows,
        notes=["values < 1 mean slower than the SG2044; blank = exceeds core count"],
    )


def _compiler_table(
    number: int, n_threads: int, paper_table, engine: SweepEngine | None = None
) -> TableResult:
    engine = engine if engine is not None else default_engine()
    engine.run_many(_compiler_grid(n_threads), on_dnr="none")
    rows: list[list[object]] = []
    for kernel in paper.KERNELS:
        old = _mops(
            engine, "sg2044", kernel, "C", n_threads,
            compiler="gcc-12.3.1", vectorise=True,
        )
        vec = _mops(
            engine, "sg2044", kernel, "C", n_threads,
            compiler="gcc-15.2", vectorise=True,
        )
        novec = _mops(
            engine, "sg2044", kernel, "C", n_threads,
            compiler="gcc-15.2", vectorise=False,
        )
        p = paper_table[kernel]
        rows.append([kernel.upper(), old, p[0], vec, p[1], novec, p[2]])
    return TableResult(
        number=number,
        title=(
            f"SG2044 compiler/vectorisation comparison, class C, "
            f"{n_threads} core{'s' if n_threads > 1 else ''} (Mop/s)"
        ),
        headers=[
            "Benchmark",
            "GCC 12.3.1",
            "(paper)",
            "GCC 15.2 vec",
            "(paper)",
            "GCC 15.2 no-vec",
            "(paper)",
        ],
        rows=rows,
        notes=["the CG vec column is the Section 6 RVV gather pathology"],
    )


def table7(engine: SweepEngine | None = None) -> TableResult:
    """Compiler versions and vectorisation, single core."""
    return _compiler_table(7, 1, paper.TABLE7, engine=engine)


def table8(engine: SweepEngine | None = None) -> TableResult:
    """Compiler versions and vectorisation, all 64 cores."""
    return _compiler_table(8, 64, paper.TABLE8, engine=engine)


TABLE_BUILDERS = {
    1: table1,
    2: table2,
    3: table3,
    4: table4,
    5: table5,
    6: table6,
    7: table7,
    8: table8,
}

_TABLE_GRIDS = {
    2: _table2_grid,
    3: _table3_grid,
    4: _table4_grid,
    6: _table6_grid,
    7: lambda: _compiler_grid(1),
    8: lambda: _compiler_grid(64),
}


def build_table(number: int, engine: SweepEngine | None = None) -> TableResult:
    """Regenerate one paper table by number (1-8).

    ``engine`` routes every sweep the builder runs through a specific
    :class:`SweepEngine` instead of the process-wide default -- the
    service's job manager passes its own engine here so its store and
    execution counters see the builder's work (and a prefetched grid
    on that engine makes the builder's per-cell lookups pure cache hits).
    """
    try:
        builder = TABLE_BUILDERS[number]
    except KeyError:
        raise KeyError(f"the paper has tables 1-8; no table {number}") from None
    with obs.span(f"table{number}"):
        result = builder(engine=engine)
    obs.incr("harness.tables_built")
    return result
