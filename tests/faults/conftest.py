"""Every faults test starts and ends with telemetry off."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_slots():
    obs.disable()
    yield
    obs.disable()
