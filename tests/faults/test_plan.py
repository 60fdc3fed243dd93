"""FaultPlan: deterministic schedules, the slot, and the taxonomy."""

import pytest

from repro import faults, obs
from repro.core.perfmodel import DNRError
from repro.faults import (
    FaultPlan,
    InjectedIOError,
    InjectedTransientError,
    NullFaultPlan,
    TransientError,
    classify,
)


def _drive(plan, site, key, attempts):
    """Outcome sequence: 'ok' or the injected exception class name."""
    out = []
    for _ in range(attempts):
        try:
            plan.inject(site, key, kinds=("transient", "slow", "io"))
            out.append("ok")
        except InjectedTransientError:
            out.append("transient")
        except InjectedIOError:
            out.append("io")
    return out


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = _drive(FaultPlan(seed=5, transient_rate=0.5), "s", "k", 10)
        b = _drive(FaultPlan(seed=5, transient_rate=0.5), "s", "k", 10)
        assert a == b

    def test_different_seeds_differ(self):
        schedules = {
            tuple(_drive(FaultPlan(seed=s, transient_rate=0.5), "s", "k", 16))
            for s in range(8)
        }
        assert len(schedules) > 1

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=1)
        assert _drive(plan, "s", "k", 50) == ["ok"] * 50
        assert plan.stats() == {}

    def test_rate_one_fires_until_cap(self):
        plan = FaultPlan(seed=1, transient_rate=1.0, max_failures=2)
        assert _drive(plan, "s", "k", 5) == ["transient", "transient", "ok", "ok", "ok"]

    def test_cap_is_per_key(self):
        plan = FaultPlan(seed=1, transient_rate=1.0, max_failures=1)
        assert _drive(plan, "s", "a", 2) == ["transient", "ok"]
        assert _drive(plan, "s", "b", 2) == ["transient", "ok"]

    def test_io_kind_only_fires_at_io_probes(self):
        plan = FaultPlan(seed=1, io_rate=1.0, max_failures=10)
        # A probe that does not list "io" never raises it.
        plan.inject("s", "k", kinds=("transient", "slow"))
        with pytest.raises(InjectedIOError):
            plan.inject("s", "k", kinds=("io",))

    def test_slow_fault_calls_sleep_deterministically(self):
        delays = []
        plan = FaultPlan(
            seed=3, slow_rate=1.0, slow_delay_s=0.25, max_failures=2,
            sleep=delays.append,
        )
        for _ in range(5):
            plan.inject("s", "k")
        assert delays == [0.25, 0.25]  # capped at max_failures

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="transient_rate"):
            FaultPlan(transient_rate=1.5)
        with pytest.raises(ValueError, match="max_failures"):
            FaultPlan(max_failures=-1)

    def test_injection_counters_and_spans(self):
        rec = obs.install()
        plan = FaultPlan(seed=1, transient_rate=1.0, max_failures=1)
        with pytest.raises(InjectedTransientError):
            plan.inject("s", "k")
        counters = rec.counters_snapshot()
        assert counters["faults.injected"] == 1
        assert counters["faults.transient"] == 1
        names = [c["name"] for c in rec.span_tree()["children"]]
        assert "fault[transient]" in names
        assert rec.quiescent()


class TestSlot:
    def test_default_is_null(self):
        assert isinstance(faults.plan(), NullFaultPlan)
        assert not faults.is_enabled()
        faults.inject("anything", "goes")  # no-op, no error

    def test_install_and_disable(self):
        plan = faults.install(FaultPlan(seed=2, transient_rate=1.0))
        assert faults.plan() is plan
        assert faults.is_enabled()
        with pytest.raises(InjectedTransientError):
            faults.inject("s", "k")
        faults.disable()
        assert not faults.is_enabled()
        faults.inject("s", "k")


class TestTaxonomy:
    def test_classify_buckets(self):
        assert classify(TransientError("x")) == "transient"
        assert classify(InjectedTransientError("x")) == "transient"
        assert classify(DNRError("no fit")) == "dnr"
        assert classify(RuntimeError("bug")) == "fatal"
        assert classify(InjectedIOError("disk")) == "fatal"

    def test_injected_io_is_an_oserror(self):
        # Real filesystem guards must see injected I/O faults.
        assert issubclass(InjectedIOError, OSError)
