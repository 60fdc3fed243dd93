"""``repro bench``: run suites, rewrite the baseline, gate regressions.

The runner turns the ``benchmarks/`` directory into a *named suite
manifest* (``bench_store.py`` -> suite ``store``), runs the requested
subset through pytest in a subprocess (``--benchmark-disable``: timing
comes from the shared ``time_best_of`` fixture, not pytest-benchmark),
reads back the entries the session wrote into a scratch path, and folds
the paper-fidelity scorecard into the same entry stream.  Then it
either *records* (merge into the committed baseline,
``benchmarks/bench_artifact.json``) or *checks* (compare against that
baseline and write nothing).

Check semantics:

* **speed fields** are compared only when the baseline was recorded on
  this machine (equal :func:`~repro.bench.schema.machine_fingerprint`);
  on any other machine they report ``seeded``;
* the deterministic **fidelity** fields are always compared, so the
  model drifting away from the paper fails ``repro bench --check``
  exactly like a slowdown does;
* an apparent regression is **re-measured**: the suites owning the
  regressed labels re-run (up to :data:`ESCALATION_ROUNDS` times) and
  per-field bests are folded before the verdict stands -- a host-load
  epoch must not fail the gate;
* a surviving regression exits 1.  After an intentional perf change,
  ``repro bench`` re-records the baseline.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from repro import obs

from . import schema
from .compare import Delta, compare_entries, field_direction, regressions

__all__ = [
    "BenchError",
    "discover_suites",
    "fidelity_entries",
    "make_pytest_runner",
    "record_run",
    "check_run",
]

#: Escalation re-measurement rounds ``check_run`` may spend.
ESCALATION_ROUNDS = 2

#: Synthetic suite name the scorecard entries are recorded under (it is
#: recomputed in-process, not run through pytest).
FIDELITY_SUITE = "fidelity"


class BenchError(RuntimeError):
    """A benchmark run failed outright (bad suite name, pytest failure)."""


def discover_suites(bench_dir: str | Path) -> dict[str, Path]:
    """Suite name -> bench file for every ``bench_*.py`` in the directory."""
    bench_dir = Path(bench_dir)
    suites = {}
    try:
        names = sorted(os.listdir(bench_dir))
    except OSError:
        return {}
    for name in names:
        if name.startswith("bench_") and name.endswith(".py"):
            suites[name[len("bench_"):-len(".py")]] = bench_dir / name
    return suites


def _resolve_files(bench_dir: Path, suites: list[str] | None) -> list[Path]:
    known = discover_suites(bench_dir)
    if not known:
        raise BenchError(f"no bench_*.py suites found under {bench_dir}")
    if suites is None:
        return list(known.values())
    missing = sorted(set(suites) - set(known))
    if missing:
        raise BenchError(
            f"unknown suite(s) {', '.join(missing)}; "
            f"known: {', '.join(sorted(known))}"
        )
    return [known[s] for s in suites]


def make_pytest_runner(bench_dir: str | Path):
    """The default run function: one pytest subprocess per invocation.

    Returns ``runner(suites) -> entries``.  The subprocess writes its
    entries into a scratch path (``REPRO_BENCH_ARTIFACT``); only
    :func:`record_run` ever writes the baseline.
    """
    bench_dir = Path(bench_dir)

    def run(suites: list[str] | None) -> list[dict]:
        files = _resolve_files(bench_dir, suites)
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
            scratch_artifact = Path(scratch) / "bench_artifact.json"
            env = dict(os.environ)
            env["REPRO_BENCH_ARTIFACT"] = str(scratch_artifact)
            cmd = [
                sys.executable,
                "-m",
                "pytest",
                *[str(f) for f in files],
                "-q",
                "--benchmark-disable",
                "-o",
                "python_files=bench_*.py",
            ]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                tail = "\n".join(
                    (proc.stdout + "\n" + proc.stderr).strip().splitlines()[-25:]
                )
                raise BenchError(
                    f"benchmark run failed (pytest exit {proc.returncode}):\n{tail}"
                )
            artifact = schema.load_artifact(scratch_artifact)
            if artifact is None:
                raise BenchError(
                    "benchmark run wrote no artifact "
                    f"(expected {scratch_artifact}); do the suites use the "
                    "bench_artifact fixture?"
                )
            return artifact["entries"]

    return run


def _fidelity_slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def fidelity_entries() -> list[dict]:
    """The paper-fidelity scorecard as gateable artifact entries.

    Deterministic (the scorecard runs the model at ``noise_cv=0``), so
    these entries repeat bit-identically until the model changes -- any
    drift is a real fidelity change, and the ``*_err`` fields gate it
    lower-better alongside the speed entries.
    """
    from repro.harness.scorecard import scorecard

    entries = []
    for score in scorecard():
        entries.append(
            {
                "label": f"fidelity.{_fidelity_slug(score.name)}",
                "suite": FIDELITY_SUITE,
                "n_points": score.n_points,
                "mean_abs_rel_err": score.mean_abs_rel_err,
                "max_abs_rel_err": score.max_abs_rel_err,
            }
        )
    return entries


def _run_once(run_fn, suites, fidelity: bool) -> list[dict]:
    """One run's entries, the scorecard folded in when ``fidelity``."""
    entries = list(run_fn(suites))
    if fidelity:
        entries.extend(fidelity_entries())
    return entries


def _default_artifact(bench_dir: Path, artifact_path) -> Path:
    return Path(artifact_path or bench_dir / "bench_artifact.json")


def record_run(
    bench_dir: str | Path,
    artifact_path: str | Path | None = None,
    suites: list[str] | None = None,
    fidelity: bool = True,
    run_fn=None,
) -> tuple[list[dict], dict]:
    """``repro bench``: run, then rewrite the baseline with the rows.

    A subset run replaces exactly the rows of the suites it ran.  A run
    of every suite rebuilds the file, so the rows of a deleted suite
    drop out (the fidelity rows stay when ``fidelity`` is off: they do
    not depend on the machine).  On a machine other than the
    baseline's, only a run of every suite may rewrite it: a subset
    would leave the other suites' timings from the old machine under
    the new machine's fingerprint.
    """
    bench_dir = Path(bench_dir)
    artifact_path = _default_artifact(bench_dir, artifact_path)
    existing = schema.load_artifact(artifact_path)
    if existing is not None and suites is None:
        existing["entries"] = [
            e for e in existing["entries"] if e.get("suite") == FIDELITY_SUITE
        ]
    elif (
        existing is not None
        and existing.get("run", {}).get("machine") != schema.machine_fingerprint()
    ):
        raise BenchError(
            f"{artifact_path} was recorded on another machine; run every "
            "suite (`repro bench` with no suite names) to re-record it here"
        )
    entries = _run_once(run_fn or make_pytest_runner(bench_dir), suites, fidelity)
    run_meta = schema.run_metadata(
        suites=[e["suite"] for e in entries if e.get("suite")],
        escalation_rounds=sum(
            e["extra_rounds"]
            for e in entries
            if isinstance(e.get("extra_rounds"), int)
        ),
    )
    schema.write_artifact(
        artifact_path, schema.merge_artifact(existing, entries, run_meta)
    )
    obs.incr("bench.runs_recorded")
    return entries, run_meta


def _baseline(artifact: dict | None) -> dict[str, dict]:
    """Label -> baseline entry, speed rows only when recorded here."""
    if artifact is None:
        return {}
    same_machine = (
        artifact.get("run", {}).get("machine") == schema.machine_fingerprint()
    )
    return {
        e["label"]: e
        for e in artifact["entries"]
        if same_machine or e.get("suite") == FIDELITY_SUITE
    }


def _fold_best(entries: list[dict], fresh: list[dict]) -> list[dict]:
    """Fold a re-measurement into accumulated per-field bests.

    Gated fields keep their best observation across rounds (min for
    lower-better, max for higher-better -- the same accumulated-minima
    discipline ``escalate_until`` applies inside a single bench);
    everything else takes the fresh value.
    """
    by_label = {e["label"]: dict(e) for e in entries}
    for new in fresh:
        old = by_label.get(new["label"])
        if old is None:
            by_label[new["label"]] = dict(new)
            continue
        merged = dict(new)
        for field, value in new.items():
            direction = field_direction(field)
            prev = old.get(field)
            if (
                direction is not None
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
                and isinstance(prev, (int, float))
                and not isinstance(prev, bool)
            ):
                fold = min if direction == "lower" else max
                merged[field] = fold(float(prev), float(value))
        by_label[new["label"]] = merged
    return sorted(by_label.values(), key=lambda e: e["label"])


def check_run(
    bench_dir: str | Path,
    artifact_path: str | Path | None = None,
    suites: list[str] | None = None,
    fidelity: bool = True,
    run_fn=None,
) -> tuple[list[Delta], int, int]:
    """``repro bench --check``: gate a fresh run against the baseline.

    Returns ``(deltas, escalation_rounds_used, exit_code)``: 0 when the
    run passed, 1 when a regression survived re-measurement.  Writes
    nothing.
    """
    bench_dir = Path(bench_dir)
    baseline = _baseline(
        schema.load_artifact(_default_artifact(bench_dir, artifact_path))
    )
    run_fn = run_fn or make_pytest_runner(bench_dir)

    entries = _run_once(run_fn, suites, fidelity)
    deltas = compare_entries(entries, baseline)

    escalations = 0
    while regressions(deltas) and escalations < ESCALATION_ROUNDS:
        # Escalate: re-measure only the suites owning regressed labels.
        # Fidelity is deterministic -- re-running it cannot change the
        # verdict -- and entries without a runnable suite have nothing
        # to re-run; if nothing is re-runnable, the verdict stands.
        by_label = {e["label"]: e for e in entries}
        suspect = {
            by_label[d.label].get("suite")
            for d in regressions(deltas)
            if d.label in by_label
        }
        rerun = sorted(
            s
            for s in suspect
            if s and s != FIDELITY_SUITE and s in discover_suites(bench_dir)
        )
        if not rerun:
            break
        escalations += 1
        obs.incr("bench.check_escalations")
        entries = _fold_best(entries, list(run_fn(rerun)))
        deltas = compare_entries(entries, baseline)

    if regressions(deltas):
        obs.incr("bench.check_failed")
        return deltas, escalations, 1
    obs.incr("bench.check_passed")
    return deltas, escalations, 0
