"""Shared fixtures: noise-free runners and small cached model objects."""

import pytest

from repro.core.experiment import ExperimentRunner
from repro.core.perfmodel import PerformanceModel


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "rewrite the golden snapshots instead of comparing: telemetry "
            "under tests/obs/golden/, service documents under "
            "tests/service/golden/, and the model-prediction and export "
            "digests in tests/core/golden/model_pin.json"
        ),
    )


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should rewrite golden snapshots instead of diffing."""
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def model() -> PerformanceModel:
    """One calibrated model reused across the whole test session."""
    return PerformanceModel()


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Noise-free runner so assertions are exact and fast."""
    return ExperimentRunner(noise_cv=0.0)


@pytest.fixture(scope="session")
def noisy_runner() -> ExperimentRunner:
    """Default runner with the paper's five-run noisy protocol."""
    return ExperimentRunner()
