"""Absolute pins on the performance model's outputs and the paper export.

The planner-vs-oracle differential (``test_plan.py``) compares two
callers of the model against each other; a change to the cost terms both
share moves both sides and passes unseen.  These pins compare against
checked-in digests instead:

* every :class:`Prediction` field (floats as ``float.hex``) plus every DNR
  message over a catalog grid -- all machines, compilers and kernels,
  classes S and C, vectorisation on and off, power-of-two thread counts
  and each machine's full core count, calibrated and raw.  Calibrated
  class S goes through ``predict_batch``, with each paper-default
  compiler family's full-chip point through ``predict``; the rest goes
  through the planner-backed :class:`SweepEngine`;
* the sha256 of each file ``export_all`` writes.

The ``float.hex`` digests assume the same IEEE-754 results from NumPy's
elementwise functions (``log2``, ``power``); a NumPy upgrade that moves
one ulp shows up here first.  After an *intentional* model change, check
the diff and refresh with ``pytest tests/core/test_model_pin.py
--update-golden``.
"""

import hashlib
import json
from operator import attrgetter
from pathlib import Path

import pytest

from repro.compilers.gcc import compiler_names, default_compiler_for, get_compiler
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.perfmodel import DNRError, PerformanceModel
from repro.core.sweep import SweepEngine
from repro.harness.export import export_all
from repro.machines.catalog import all_machines
from repro.npb.signatures import SIGNATURE_BUILDERS, signature_for

GOLDEN = Path(__file__).parent / "golden" / "model_pin.json"

_FLOATS = attrgetter(
    "time_s", "mops", "t_compute", "t_stream", "t_latency", "t_sync",
    "calibration_factor",
)


def _thread_counts(n_cores: int) -> list[int]:
    counts = [1]
    while counts[-1] * 2 <= n_cores:
        counts.append(counts[-1] * 2)
    if counts[-1] != n_cores:
        counts.append(n_cores)
    return counts


def _line(pred) -> str:
    fields = [pred.machine, pred.kernel, pred.npb_class, str(pred.n_threads)]
    fields += map(float.hex, _FLOATS(pred))
    fields += [str(pred.vectorised), "|".join(pred.notes)]
    return "\t".join(fields)


def _families():
    """(machine, compiler name, kernel, vectorise) in a fixed order."""
    for machine in all_machines():
        for compiler in compiler_names():
            for kernel in SIGNATURE_BUILDERS:
                for vectorise in (True, False):
                    yield machine, compiler, kernel, vectorise


def _model_digest() -> str:
    """Calibrated class S through predict_batch and predict."""
    model = PerformanceModel()
    h = hashlib.sha256()
    for machine, name, kernel, vectorise in _families():
        sig = signature_for(kernel, "S")
        compiler = get_compiler(name)
        counts = _thread_counts(machine.n_cores)
        try:
            if name == default_compiler_for(machine.name):
                preds = model.predict_batch(
                    machine, sig, compiler, counts[:-1], vectorise
                ) + [model.predict(machine, sig, compiler, counts[-1], vectorise)]
            else:
                preds = model.predict_batch(machine, sig, compiler, counts, vectorise)
        except DNRError as exc:
            h.update(f"DNR\t{exc}\n".encode())
            continue
        for pred in preds:
            h.update((_line(pred) + "\n").encode())
    return h.hexdigest()


def _engine_digest(calibrate: bool, classes: str) -> str:
    """``classes`` through one planner-backed ``run_many`` batch."""
    runner = ExperimentRunner(model=PerformanceModel(calibrate=calibrate), noise_cv=0.0)
    engine = SweepEngine(runner)
    configs = [
        ExperimentConfig(
            machine=machine.name, kernel=kernel, npb_class=npb_class, n_threads=n,
            compiler=name, vectorise=vectorise, runs=1,
        )
        for npb_class in classes
        for machine, name, kernel, vectorise in _families()
        for n in _thread_counts(machine.n_cores)
    ]
    h = hashlib.sha256()
    for config, result in zip(configs, engine.run_many(configs, on_dnr="none")):
        if result is None:
            with pytest.raises(DNRError) as exc:
                engine.run(config)
            h.update(f"DNR\t{config.n_threads}\t{exc.value}\n".encode())
        else:
            h.update((_line(result.prediction) + "\n").encode())
    return h.hexdigest()


def _export_digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in export_all(directory)
    }


def test_model_and_export_match_pins(tmp_path, update_golden):
    actual = {
        "predict/calibrated/S": _model_digest(),
        "engine/calibrated/C": _engine_digest(True, "C"),
        "engine/raw/SC": _engine_digest(False, "SC"),
        "export": _export_digests(tmp_path),
    }
    if update_golden:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        return
    assert GOLDEN.exists(), (
        f"missing pin file {GOLDEN}; run "
        "`pytest tests/core/test_model_pin.py --update-golden` to create it"
    )
    expected = json.loads(GOLDEN.read_text())
    assert len(actual["export"]) == 15
    assert actual == expected
