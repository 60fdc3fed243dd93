"""Class W functional runs (bigger than CI-default class S)."""

import pytest

from repro.npb.suite import run_benchmark

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("kernel", ["is", "mg", "ep", "ft"])
def test_class_w_verifies(kernel):
    result = run_benchmark(kernel, "W")
    assert result.verified, f"{kernel} W failed: {result.details}"


def test_bt_class_w_verifies():
    result = run_benchmark("bt", "W")
    assert result.verified


@pytest.mark.parametrize(
    "npb_class, zeta_hex",
    [("W", "0x1.4b9a61031c696p+3"), ("A", "0x1.1215715a1d9e8p+4")],
)
def test_cg_zeta_verifies_and_is_unchanged(npb_class, zeta_hex):
    # zeta as recorded with SciPy's CSR assembly, before CG moved to NumPy.
    result = run_benchmark("cg", npb_class)
    assert result.verified
    assert result.details["zeta"].hex() == zeta_hex


def test_class_a_ep_official_constants():
    result = run_benchmark("ep", "A")
    assert result.verified
    assert result.details["sx"] == pytest.approx(-4.295875165629892e3, rel=1e-10)
