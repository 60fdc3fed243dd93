"""NPB problem-size tables and op-count formulas per class.

Sizes follow the NPB 3.x specification.  The counted-operation totals
(the denominator of NPB's Mop/s metric) are analytic estimates of each
benchmark's floating-point/key-operation volume; they match the official
counters to within a few percent, which is ample since every paper
comparison is a *ratio* of Mop/s values for the same benchmark and class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import NPBClass

__all__ = [
    "EPParams",
    "ISParams",
    "MGParams",
    "CGParams",
    "FTParams",
    "PseudoAppParams",
    "ep_params",
    "is_params",
    "mg_params",
    "cg_params",
    "ft_params",
    "bt_params",
    "lu_params",
    "sp_params",
    "KERNELS",
    "PSEUDO_APPS",
    "ALL_BENCHMARKS",
]

KERNELS = ("is", "mg", "ep", "cg", "ft")
PSEUDO_APPS = ("bt", "lu", "sp")
ALL_BENCHMARKS = KERNELS + PSEUDO_APPS


# ----------------------------------------------------------------------
# EP -- embarrassingly parallel Gaussian-pair generation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EPParams:
    m: int  # 2^m random pairs

    @property
    def n_pairs(self) -> int:
        return 1 << self.m

    @property
    def total_mops(self) -> float:
        # NPB counts 2^(m+1) operations (two uniforms per candidate pair).
        return float(1 << (self.m + 1)) / 1e6

    @property
    def working_set_bytes(self) -> int:
        return 2 * 2**20  # batch buffers + 10 annulus counters


_EP = {
    NPBClass.S: EPParams(24),
    NPBClass.W: EPParams(25),
    NPBClass.A: EPParams(28),
    NPBClass.B: EPParams(30),
    NPBClass.C: EPParams(32),
}


def ep_params(npb_class: NPBClass) -> EPParams:
    return _EP[npb_class]


# ----------------------------------------------------------------------
# IS -- integer bucket sort
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ISParams:
    total_keys_log2: int
    max_key_log2: int
    iterations: int = 10

    @property
    def n_keys(self) -> int:
        return 1 << self.total_keys_log2

    @property
    def max_key(self) -> int:
        return 1 << self.max_key_log2

    @property
    def total_mops(self) -> float:
        # One ranking operation per key per iteration.
        return self.iterations * self.n_keys / 1e6

    @property
    def working_set_bytes(self) -> int:
        # key_array + key_buff2 (both N int32) + key_buff1 (max_key int32).
        return 4 * (2 * self.n_keys + self.max_key)


_IS = {
    NPBClass.S: ISParams(16, 11),
    NPBClass.W: ISParams(20, 16),
    NPBClass.A: ISParams(23, 19),
    NPBClass.B: ISParams(25, 21),
    NPBClass.C: ISParams(27, 23),
}


def is_params(npb_class: NPBClass) -> ISParams:
    return _IS[npb_class]


# ----------------------------------------------------------------------
# MG -- multigrid V-cycle Poisson solver
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MGParams:
    grid: int  # cubic grid edge
    iterations: int

    @property
    def n_points(self) -> int:
        return self.grid**3

    @property
    def n_levels(self) -> int:
        return self.grid.bit_length() - 1  # down to 2^1

    @property
    def total_mops(self) -> float:
        # ~58 flops per fine-grid point per V-cycle iteration; coarser
        # levels add the usual 1/7 geometric tail in 3D (sum 8/7), plus
        # the residual-norm evaluations.
        flops = 58.0 * self.n_points * self.iterations * (8.0 / 7.0)
        return flops / 1e6

    @property
    def working_set_bytes(self) -> int:
        # u, v, r on the fine grid (8 B doubles) plus the 1/7 multigrid
        # tail across coarser levels.
        return int(3 * 8 * self.n_points * 8 / 7)


_MG = {
    NPBClass.S: MGParams(32, 4),
    NPBClass.W: MGParams(128, 4),
    NPBClass.A: MGParams(256, 4),
    NPBClass.B: MGParams(256, 20),
    NPBClass.C: MGParams(512, 20),
}


def mg_params(npb_class: NPBClass) -> MGParams:
    return _MG[npb_class]


# ----------------------------------------------------------------------
# CG -- conjugate gradient with a random sparse matrix
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CGParams:
    n: int
    nonzer: int
    niter: int
    shift: float
    zeta_ref: float | None  # official verification value, if known
    inner_iterations: int = 25
    rcond: float = 0.1

    @property
    def nnz_estimate(self) -> int:
        # makea produces ~ n * (nonzer+1) * (nonzer+1) entries before
        # deduplication; after, roughly half survive.
        return int(self.n * (self.nonzer + 1) ** 2 * 0.55)

    @property
    def total_mops(self) -> float:
        # Per inner iteration: one SpMV (2 flops/nonzero) + 5 vector ops.
        per_inner = 2.0 * self.nnz_estimate + 10.0 * self.n
        return self.niter * self.inner_iterations * per_inner / 1e6

    @property
    def working_set_bytes(self) -> int:
        # CSR matrix (8 B value + 4 B col per nonzero) + a handful of
        # n-vectors.
        return 12 * self.nnz_estimate + 8 * 8 * self.n


_CG = {
    # Official NPB zeta verification values.
    NPBClass.S: CGParams(1400, 7, 15, 10.0, 8.5971775078648),
    NPBClass.W: CGParams(7000, 8, 15, 12.0, 10.362595087124),
    NPBClass.A: CGParams(14000, 11, 15, 20.0, 17.130235054029),
    NPBClass.B: CGParams(75000, 13, 75, 60.0, 22.712745482631),
    NPBClass.C: CGParams(150000, 15, 75, 110.0, 28.973605592845),
}


def cg_params(npb_class: NPBClass) -> CGParams:
    return _CG[npb_class]


# ----------------------------------------------------------------------
# FT -- 3D FFT PDE solver
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FTParams:
    nx: int
    ny: int
    nz: int
    iterations: int
    alpha: float = 1e-6

    @property
    def n_points(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def total_mops(self) -> float:
        import math

        n = self.n_points
        log_n = math.log2(n)
        # One forward 3D FFT up front; per iteration one evolve (~8 flops/
        # point) + one inverse 3D FFT (5 N log2 N) + checksum.
        fft = 5.0 * n * log_n
        per_iter = fft + 8.0 * n
        return (fft + self.iterations * per_iter) / 1e6

    @property
    def working_set_bytes(self) -> int:
        # Two complex128 arrays (u0 frequency-space, u1 scratch/result).
        return 2 * 16 * self.n_points


_FT = {
    NPBClass.S: FTParams(64, 64, 64, 6),
    NPBClass.W: FTParams(128, 128, 32, 6),
    NPBClass.A: FTParams(256, 256, 128, 6),
    NPBClass.B: FTParams(512, 256, 256, 20),
    NPBClass.C: FTParams(512, 512, 512, 20),
}


def ft_params(npb_class: NPBClass) -> FTParams:
    return _FT[npb_class]


# ----------------------------------------------------------------------
# BT / LU / SP pseudo applications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PseudoAppParams:
    name: str
    grid: int
    iterations: int
    flops_per_point_iter: float

    @property
    def n_points(self) -> int:
        return self.grid**3

    @property
    def total_mops(self) -> float:
        return self.flops_per_point_iter * self.n_points * self.iterations / 1e6

    @property
    def working_set_bytes(self) -> int:
        # Five-component state + rhs + forcing on the grid, doubles.
        return 3 * 5 * 8 * self.n_points


# flops/point/iteration constants chosen to land the official NPB totals
# (BT C ~= 6.8e11, LU C ~= 4.1e11, SP C ~= 5.8e11 flops).
_BT = {
    NPBClass.S: PseudoAppParams("bt", 12, 60, 800.0),
    NPBClass.W: PseudoAppParams("bt", 24, 200, 800.0),
    NPBClass.A: PseudoAppParams("bt", 64, 200, 800.0),
    NPBClass.B: PseudoAppParams("bt", 102, 200, 800.0),
    NPBClass.C: PseudoAppParams("bt", 162, 200, 800.0),
}
_LU = {
    NPBClass.S: PseudoAppParams("lu", 12, 50, 385.0),
    NPBClass.W: PseudoAppParams("lu", 33, 300, 385.0),
    NPBClass.A: PseudoAppParams("lu", 64, 250, 385.0),
    NPBClass.B: PseudoAppParams("lu", 102, 250, 385.0),
    NPBClass.C: PseudoAppParams("lu", 162, 250, 385.0),
}
_SP = {
    NPBClass.S: PseudoAppParams("sp", 12, 100, 341.0),
    NPBClass.W: PseudoAppParams("sp", 36, 400, 341.0),
    NPBClass.A: PseudoAppParams("sp", 64, 400, 341.0),
    NPBClass.B: PseudoAppParams("sp", 102, 400, 341.0),
    NPBClass.C: PseudoAppParams("sp", 162, 400, 341.0),
}


def bt_params(npb_class: NPBClass) -> PseudoAppParams:
    return _BT[npb_class]


def lu_params(npb_class: NPBClass) -> PseudoAppParams:
    return _LU[npb_class]


def sp_params(npb_class: NPBClass) -> PseudoAppParams:
    return _SP[npb_class]
