"""Memory-subsystem model: saturation curves and their invariants."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.machines.ddr import ddr4, ddr5
from repro.machines.memory import MemorySubsystem, smoothmin, smoothmin_rows

GiB = 2**30


def _mem(**kw):
    defaults = dict(
        ddr=ddr4(3200),
        controllers=4,
        channels=4,
        capacity_bytes=128 * GiB,
        per_core_stream_bw_gbs=5.0,
    )
    defaults.update(kw)
    return MemorySubsystem(**defaults)


class TestSmoothmin:
    @given(
        demand=st.floats(0.0, 1e12),
        cap=st.floats(1e-3, 1e12),
        sharpness=st.floats(1.0, 16.0),
    )
    def test_never_exceeds_either_bound(self, demand, cap, sharpness):
        out = smoothmin(demand, cap, sharpness)
        assert out <= demand + 1e-9
        assert out <= cap * 1.0001

    @given(cap=st.floats(1.0, 1e9))
    def test_small_demand_passes_through(self, cap):
        demand = cap / 1000.0
        assert smoothmin(demand, cap) == pytest.approx(demand, rel=1e-3)

    @given(cap=st.floats(1.0, 1e9))
    def test_huge_demand_saturates_to_cap(self, cap):
        assert smoothmin(cap * 1000, cap) == pytest.approx(cap, rel=1e-2)

    def test_monotone_in_demand(self):
        values = [smoothmin(d, 100.0) for d in range(0, 1000, 10)]
        assert values == sorted(values)

    def test_sharper_knee_closer_to_hard_min(self):
        soft = smoothmin(100.0, 100.0, sharpness=2.0)
        hard = smoothmin(100.0, 100.0, sharpness=16.0)
        assert soft < hard <= 100.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            smoothmin(-1.0, 10.0)
        with pytest.raises(ValueError):
            smoothmin(1.0, 0.0)
        with pytest.raises(ValueError):
            smoothmin(1.0, 1.0, sharpness=0.5)


class TestStreamBandwidth:
    def test_single_core_is_core_limited(self):
        mem = _mem()
        assert mem.stream_bw_gbs(1) == pytest.approx(5.0, rel=0.01)

    def test_monotone_in_cores(self):
        mem = _mem()
        bws = [mem.stream_bw_gbs(n) for n in range(1, 65)]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bws, bws[1:]))

    def test_saturates_at_sustained_ceiling(self):
        mem = _mem(sustained_bw_override_gbs=40.0)
        assert mem.stream_bw_gbs(64) <= 40.0
        assert mem.stream_bw_gbs(64) > 35.0

    def test_override_respected(self):
        assert _mem(sustained_bw_override_gbs=44.0).sustained_bw_gbs == 44.0

    def test_default_ceiling_from_jedec(self):
        mem = _mem()
        assert mem.sustained_bw_gbs == pytest.approx(
            4 * ddr4(3200).channel_sustained_bw_gbs
        )

    def test_utilisation_in_unit_range(self):
        mem = _mem(sustained_bw_override_gbs=40.0)
        for n in (1, 8, 64):
            assert 0.0 < mem.stream_bw_gbs(n) / mem.sustained_bw_gbs <= 1.0


class TestRandomAccess:
    def test_rate_monotone_and_capped(self):
        # The latency term's law: n cores issue n * mlp / latency misses
        # per second, smoothly capped at the channels' random-row rate.
        mem = _mem()
        ns = np.array([1, 2, 4, 8, 16, 32, 64], dtype=np.float64)
        demand = ns * mem.core_mlp / (mem.idle_latency_ns * 1e-9)
        rates = smoothmin_rows(demand, mem.random_rate_cap(), mem.saturation_sharpness)
        assert np.all(np.diff(rates) >= 0)
        assert rates[-1] <= mem.random_rate_cap() * 1.0001
        assert rates[0] == pytest.approx(demand[0], rel=0.01)

    def test_idle_latency_includes_fabric(self):
        mem = _mem(extra_latency_ns=30.0)
        assert mem.idle_latency_ns == pytest.approx(
            ddr4(3200).random_access_latency_ns + 30.0
        )


class TestCapacity:
    def test_fits_with_headroom(self):
        mem = _mem(capacity_bytes=1 * GiB)
        assert mem.fits(int(0.8 * GiB))
        assert not mem.fits(int(0.9 * GiB))  # beyond the 85% headroom

    def test_negative_working_set_rejected(self):
        with pytest.raises(ValueError):
            _mem().fits(-1)


class TestValidation:
    def test_channel_controller_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _mem(controllers=3, channels=4)

    def test_llc_boost_below_one_rejected(self):
        with pytest.raises(ValueError):
            _mem(llc_random_boost=0.5)

    def test_describe_mentions_ddr_and_channels(self):
        desc = _mem().describe()
        assert "DDR4-3200" in desc
        assert "4 MC / 4 ch" in desc
