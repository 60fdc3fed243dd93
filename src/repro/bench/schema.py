"""Schema v2 of the benchmark artifact: suite-tagged entries + run metadata.

``benchmarks/bench_artifact.json`` is committed, and it is the gate's
only baseline; ``git log -p`` of it is the perf trajectory.  Each entry
is tagged with the suite that recorded it (the ``bench_<suite>.py``
stem), so a subset run replaces exactly the rows of the suites it ran
and leaves every other suite's rows alone.  The ``run`` block describes
the run that last rewrote the file: git sha, wall-clock timestamp, the
machine fingerprint the gate compares speed fields under, the suites
that ran and the escalation rounds the measurements spent.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "git_sha",
    "machine_fingerprint",
    "run_metadata",
    "load_artifact",
    "merge_artifact",
    "artifact_text",
    "write_artifact",
]

#: Version of the benchmark artifact layout; any other version loads
#: as absent.
SCHEMA_VERSION = 2


def git_sha() -> str | None:
    """The repository HEAD sha, or ``None`` outside a usable git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def machine_fingerprint() -> dict:
    """What hardware/interpreter produced a run (coarse, stable fields)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _timestamp() -> str:
    """ISO-8601 UTC wall-clock stamp for run metadata.

    Run metadata is the one place the bench layer *wants* wall clock:
    it records when a measurement happened, it never feeds a result.
    """
    from datetime import datetime, timezone

    now = datetime.now(timezone.utc)  # repro: noqa[R001] -- run metadata, not a result
    return now.strftime("%Y-%m-%dT%H:%M:%SZ")


def run_metadata(
    suites: list[str] | tuple[str, ...] = (),
    escalation_rounds: int = 0,
) -> dict:
    """The per-run metadata block schema v2 attaches to every artifact."""
    return {
        "git_sha": git_sha(),
        "timestamp": _timestamp(),
        "machine": machine_fingerprint(),
        "suites": sorted(set(suites)),
        "escalation_rounds": escalation_rounds,
    }


def load_artifact(path: str | Path) -> dict | None:
    """Load a schema-v2 artifact; ``None`` when missing or unusable."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (FileNotFoundError, OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
        return None
    if not isinstance(data.get("entries"), list):
        return None
    return data


def merge_artifact(
    existing: dict | None,
    new_entries: list[dict],
    run_meta: dict,
) -> dict:
    """Fold one run's entries into an artifact.

    An existing entry is kept unless this run superseded it: either the
    run re-recorded its label, or the run executed its suite (so a
    label the suite no longer records drops out).  Suites the run did
    not execute pass through untouched.
    """
    new_labels = {e["label"] for e in new_entries}
    ran_suites = set(run_meta.get("suites", ()))
    kept = []
    if existing is not None:
        for entry in existing.get("entries", []):
            if entry.get("label") in new_labels:
                continue
            if entry.get("suite") in ran_suites:
                continue  # suite ran but no longer records this label
            kept.append(entry)
    entries = sorted(kept + list(new_entries), key=lambda e: e["label"])
    return {"schema_version": SCHEMA_VERSION, "run": run_meta, "entries": entries}


def artifact_text(artifact: dict) -> str:
    """Canonical artifact serialisation (sorted keys, trailing newline)."""
    return json.dumps(artifact, indent=2, sort_keys=True) + "\n"


def write_artifact(path: str | Path, artifact: dict) -> None:
    """Atomically publish an artifact (crash leaves the previous one)."""
    from repro.faults import write_text_atomic

    write_text_atomic(Path(path), artifact_text(artifact))
