"""Workload signatures: Table 1 character and structural expectations."""

import importlib
import pkgutil

import pytest

import repro.npb
from repro.cachesim.trace import KERNEL_TRACES
from repro.npb.params import ALL_BENCHMARKS
from repro.npb.signatures import SIGNATURE_BUILDERS, signature_for


def _npb_kernels() -> set[str]:
    """Every ``repro.npb.<k>`` module that defines its own ``run_<k>``
    (``is_.py`` defines ``run_is``); ``suite.run_suite`` is the driver."""
    kernels = set()
    for info in pkgutil.iter_modules(repro.npb.__path__):
        kernel = info.name.rstrip("_")
        module = importlib.import_module(f"repro.npb.{info.name}")
        run = getattr(module, f"run_{kernel}", None)
        if kernel != "suite" and getattr(run, "__module__", None) == module.__name__:
            kernels.add(kernel)
    return kernels


class TestRegistration:
    def test_kernels_signatures_and_traces_agree(self):
        """A kernel missing from either registry would drop out of the
        tables without an error."""
        assert _npb_kernels() == set(SIGNATURE_BUILDERS) == set(KERNEL_TRACES)

    @pytest.mark.parametrize("kernel", sorted(SIGNATURE_BUILDERS))
    def test_signature_has_positive_core_axes(self, kernel):
        """Every signature carries its core resource axes (EP alone is
        cache-resident: no DRAM bytes)."""
        for npb_class in "SWABC":
            sig = signature_for(kernel, npb_class)
            assert sig.total_mops > 0 and sig.work_per_op > 0, sig
            assert sig.working_set_bytes > 0 and sig.dram_bytes_per_op >= 0, sig


class TestCharacter:
    """The signature classifier must agree with the paper's Table 1."""

    def test_is_latency_bound(self):
        assert signature_for("is", "C").memory_character() == "latency-bound"

    def test_ep_compute_bound(self):
        assert signature_for("ep", "C").memory_character() == "compute-bound"

    def test_mg_not_compute_bound(self):
        assert signature_for("mg", "C").memory_character() != "compute-bound"

    def test_sp_more_traffic_than_bt(self):
        # Table 1: SP has the highest stall rates of the three, BT the lowest.
        assert (
            signature_for("sp", "C").dram_bytes_per_op
            > signature_for("lu", "C").dram_bytes_per_op
            > signature_for("bt", "C").dram_bytes_per_op
        )

    def test_only_cg_has_the_gather_pathology(self):
        for kernel in ALL_BENCHMARKS:
            sig = signature_for(kernel, "C")
            assert (sig.gather_pathology > 0) == (kernel == "cg")

    def test_only_ft_has_alltoall(self):
        for kernel in ALL_BENCHMARKS:
            sig = signature_for(kernel, "C")
            assert (sig.comm.alltoall_bytes > 0) == (kernel == "ft")

    def test_lu_has_most_barriers(self):
        # Wavefront sweeps synchronise per hyperplane.
        lu = signature_for("lu", "C").comm.barriers_per_mop
        for other in ("bt", "sp", "ep"):
            assert lu > signature_for(other, "C").comm.barriers_per_mop


class TestStructure:
    @pytest.mark.parametrize("kernel", ALL_BENCHMARKS)
    @pytest.mark.parametrize("npb_class", ["S", "W", "A", "B", "C"])
    def test_all_signatures_build(self, kernel, npb_class):
        sig = signature_for(kernel, npb_class)
        assert sig.total_mops > 0
        assert sig.npb_class == npb_class

    def test_cached(self):
        assert signature_for("is", "C") is signature_for("is", "C")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="cg"):
            signature_for("nonesuch", "C")

    def test_class_c_bigger_than_class_s(self):
        for kernel in ALL_BENCHMARKS:
            assert (
                signature_for(kernel, "C").total_mops
                > signature_for(kernel, "S").total_mops
            )

    def test_is_random_target_is_histogram(self):
        sig = signature_for("is", "C")
        assert sig.random_target_bytes == pytest.approx(4 * 2**23)

    def test_cg_random_target_is_x_vector(self):
        sig = signature_for("cg", "C")
        assert sig.random_target_bytes == pytest.approx(8 * 150000)
        assert sig.gather_mlp_factor < 1.0  # dependency-chained gathers
