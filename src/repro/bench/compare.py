"""Delta classification: one run's entries against the committed baseline.

The rules, deliberately simple enough to reason about in a CI log:

* **direction** comes from the field name: ``*_s`` and ``*_err`` are
  durations/errors (lower is better), ``*_per_s``, ``speedup`` and
  ``*_speedup`` are rates (higher is better), anything else is
  metadata and not gated;
* **baseline** is the field's value in the baseline entry of the same
  label;
* **margin** is :data:`BASE_MARGIN` for every field.

:func:`compare_entries` classifies each gated field as

``seeded``
    No baseline value for the label/field -- the field passes.
``ok``
    Within the margin of the baseline.
``improved``
    Beats the baseline by more than the margin -- informational, never
    a failure.
``regression``
    Worse than the baseline by more than the margin.  The gate
    re-measures (escalation) before believing this verdict; a delta
    that survives re-measurement fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BASE_MARGIN",
    "Delta",
    "field_direction",
    "compare_entries",
    "regressions",
    "render_deltas",
]

#: Relative margin every gated field gets: a clean 2x slowdown always
#: fires, while ordinary best-of-N jitter on a quiet box does not.
BASE_MARGIN = 0.25

#: Field-name suffixes gated as "higher is better" (checked before the
#: lower-better suffixes: ``_per_s`` also ends in ``_s``).
_HIGHER_SUFFIXES = ("_per_s", "_speedup")
_HIGHER_EXACT = ("speedup",)

#: Field-name suffixes gated as "lower is better".
_LOWER_SUFFIXES = ("_s", "_err")


def field_direction(field: str) -> str | None:
    """``"lower"``, ``"higher"`` or ``None`` (not a gated quantity)."""
    if field in _HIGHER_EXACT or field.endswith(_HIGHER_SUFFIXES):
        return "higher"
    if field.endswith(_LOWER_SUFFIXES):
        return "lower"
    return None


def _number(value) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


@dataclass(frozen=True)
class Delta:
    """One gated field of one entry, classified against the baseline."""

    label: str
    field: str
    direction: str
    observed: float
    baseline: float | None
    verdict: str  # "seeded" | "ok" | "improved" | "regression"

    @property
    def ratio(self) -> float | None:
        """observed/baseline (slowdown factor for lower-better fields)."""
        if self.baseline is None or self.baseline == 0:
            return None
        return self.observed / self.baseline

    def summary(self) -> str:
        if self.baseline is None:
            return (
                f"{self.label:<40} {self.field:<16} seeded     "
                f"{self.observed:.6g}"
            )
        ratio = "" if self.ratio is None else f" (x{self.ratio:.2f})"
        return (
            f"{self.label:<40} {self.field:<16} {self.verdict:<10} "
            f"{self.observed:.6g} vs {self.baseline:.6g}{ratio}"
        )


def _classify(observed: float, baseline: float, direction: str) -> str:
    if direction == "lower":
        if observed > baseline * (1.0 + BASE_MARGIN):
            return "regression"
        if observed < baseline / (1.0 + BASE_MARGIN):
            return "improved"
        return "ok"
    if observed < baseline / (1.0 + BASE_MARGIN):
        return "regression"
    if observed > baseline * (1.0 + BASE_MARGIN):
        return "improved"
    return "ok"


def compare_entries(entries: list[dict], baseline: dict[str, dict]) -> list[Delta]:
    """Classify every gated field of ``entries`` against ``baseline``.

    ``baseline`` maps label -> baseline entry.  Non-numeric fields and
    fields with no recognised direction are skipped -- free-form entry
    fields (counts, dicts, notes) are context, not gated quantities.
    """
    deltas: list[Delta] = []
    for entry in sorted(entries, key=lambda e: e.get("label", "")):
        label = entry.get("label")
        if not label:
            continue
        base_entry = baseline.get(label, {})
        for field in sorted(entry):
            direction = field_direction(field)
            observed = _number(entry[field])
            if direction is None or observed is None:
                continue
            base = _number(base_entry.get(field))
            verdict = "seeded" if base is None else _classify(observed, base, direction)
            deltas.append(
                Delta(
                    label=label,
                    field=field,
                    direction=direction,
                    observed=observed,
                    baseline=base,
                    verdict=verdict,
                )
            )
    return deltas


def regressions(deltas: list[Delta]) -> list[Delta]:
    return [d for d in deltas if d.verdict == "regression"]


def render_deltas(deltas: list[Delta], verbose: bool = False) -> str:
    """Human-readable gate report (regressions always shown in full)."""
    lines = []
    counts = {"seeded": 0, "ok": 0, "improved": 0, "regression": 0}
    for delta in deltas:
        counts[delta.verdict] += 1
        if verbose or delta.verdict in ("regression", "improved"):
            lines.append("  " + delta.summary())
    header = (
        f"bench gate: {len(deltas)} gated fields, margin "
        f"{100 * BASE_MARGIN:.0f}% -- "
        f"{counts['ok']} ok, {counts['improved']} improved, "
        f"{counts['seeded']} seeded, {counts['regression']} regression(s)"
    )
    return "\n".join([header] + lines) + "\n"
