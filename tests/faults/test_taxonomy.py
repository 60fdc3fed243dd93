"""The error taxonomy: every failure sorts into exactly one bucket."""

from repro.core.perfmodel import DNRError
from repro.faults import FaultError, TransientError, classify


def test_classify_buckets():
    assert classify(TransientError("x")) == "transient"
    assert classify(DNRError("no fit")) == "dnr"
    assert classify(RuntimeError("bug")) == "fatal"
    assert classify(FaultError("detected")) == "fatal"
    assert classify(OSError(28, "No space left on device")) == "fatal"


def test_transient_subclass_is_transient():
    class BusyDevice(TransientError):
        pass

    assert classify(BusyDevice("retry me")) == "transient"


def test_dnr_is_a_result_not_a_fault():
    assert issubclass(TransientError, FaultError)
    assert not issubclass(DNRError, FaultError)
