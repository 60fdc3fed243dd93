"""LLVM-vs-GCC study -- paper Section 7 future work.

The paper notes LLVM has supported RVV longer than GCC and proposes
exploring it.  The compiler model already carries an LLVM spec; this
module runs the same Table 7/8-shaped comparison with LLVM 18 against
GCC 15.2 on the SG2044 and reports the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compilers.gcc import get_compiler
from repro.core.experiment import ExperimentConfig, ExperimentRunner

__all__ = ["LLVMComparisonRow", "llvm_vs_gcc"]

_KERNELS = ("is", "mg", "ep", "cg", "ft")


@dataclass(frozen=True)
class LLVMComparisonRow:
    kernel: str
    gcc_mops: float
    llvm_mops: float

    @property
    def llvm_over_gcc(self) -> float:
        return self.llvm_mops / self.gcc_mops


def llvm_vs_gcc(
    machine: str = "sg2044", n_threads: int = 1, npb_class: str = "C"
) -> list[LLVMComparisonRow]:
    """Modelled LLVM 18 vs GCC 15.2 on the SG2044 (both target RVV 1.0)."""
    get_compiler("llvm-18")  # fail fast if the registry changes
    configs = [
        ExperimentConfig(
            machine=machine,
            kernel=kernel,
            npb_class=npb_class,
            n_threads=n_threads,
            compiler=compiler,
            vectorise=kernel != "cg",
        )
        for kernel in _KERNELS
        for compiler in ("gcc-15.2", "llvm-18")
    ]
    mops = [r.mean_mops for r in ExperimentRunner().engine.run_many(configs)]
    return [
        LLVMComparisonRow(kernel=kernel, gcc_mops=mops[2 * i], llvm_mops=mops[2 * i + 1])
        for i, kernel in enumerate(_KERNELS)
    ]
