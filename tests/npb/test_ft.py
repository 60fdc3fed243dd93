"""FT: spectral PDE evolution, round-trip, checksum behaviour."""

import numpy as np
import pytest

from repro.npb.common import NPBClass, Randlc
from repro.npb.ft import (
    _allclose_blockwise,
    evolution_factors,
    ft_iterations,
    initial_field,
    run_ft,
)
from repro.npb.params import ft_params


class TestEvolutionFactors:
    def test_dc_mode_untouched(self):
        p = ft_params(NPBClass.S)
        f = evolution_factors(p, t=5.0)
        assert f[0, 0, 0] == pytest.approx(1.0)

    def test_decays_with_wavenumber(self):
        p = ft_params(NPBClass.S)
        f = evolution_factors(p, t=1.0)
        assert f[1, 0, 0] < f[0, 0, 0]
        assert f[2, 0, 0] < f[1, 0, 0]

    def test_aliased_wavenumbers_symmetric(self):
        p = ft_params(NPBClass.S)
        f = evolution_factors(p, t=1.0)
        # k and -k (== n-k) decay identically.
        assert f[1, 0, 0] == pytest.approx(f[-1, 0, 0])

    def test_all_in_unit_interval(self):
        p = ft_params(NPBClass.S)
        f = evolution_factors(p, t=3.0)
        assert np.all(f > 0.0)
        assert np.all(f <= 1.0)


class TestInitialField:
    def test_deterministic_complex_field(self):
        p = ft_params(NPBClass.S)
        a = initial_field(p)
        b = initial_field(p)
        assert a.dtype == np.complex128
        assert np.array_equal(a, b)
        assert a.shape == (64, 64, 64)

    def test_fills_interleaved_stream_in_order(self):
        p = ft_params(NPBClass.S)
        u = Randlc(seed=314159265).generate(2 * p.n_points)
        expected = (u[0::2] + 1j * u[1::2]).reshape(p.nx, p.ny, p.nz)
        assert initial_field(p).tobytes() == expected.tobytes()


class TestAllcloseBlockwise:
    @pytest.mark.parametrize("bad", [None, 1e-9, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 5, -1])
    def test_matches_allclose(self, bad, where):
        rng = np.random.default_rng(3)
        b = (rng.random(37) + 1j * rng.random(37)).reshape(37, 1)
        a = b.copy()
        if bad is not None:
            a[where] += bad
        if bad in (np.inf, -np.inf):
            b[where] = a[where]  # equal infinities are close
        expected = np.allclose(a, b, rtol=1e-12, atol=1e-12)
        got = _allclose_blockwise(a, b, rtol=1e-12, atol=1e-12, block=8)
        assert got == expected


class TestIterations:
    def test_checksums_deterministic(self):
        p = ft_params(NPBClass.S)
        u_hat = np.fft.fftn(initial_field(p))
        c1 = ft_iterations(p, u_hat)
        c2 = ft_iterations(p, u_hat)
        assert c1 == c2
        assert len(c1) == p.iterations

    def test_energy_decays(self):
        # Parseval: diffusion strictly shrinks the spectral energy.
        p = ft_params(NPBClass.S)
        u_hat = np.fft.fftn(initial_field(p))
        e0 = np.abs(u_hat) ** 2
        f = evolution_factors(p, 1.0)
        e1 = np.abs(u_hat * f) ** 2
        assert e1.sum() < e0.sum()


class TestRunFT:
    def test_class_s_verifies(self):
        result = run_ft("S")
        assert result.verified
        assert np.isfinite(result.details["checksum1_re"])
