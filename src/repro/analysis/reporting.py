"""Text and JSON renderers for an :class:`AnalysisReport`.

The JSON schema (version 1) is stable and covered by tests::

    {
      "version": 1,
      "files_checked": <int>,
      "rules_run": ["R001", ...],
      "findings": [{"rule", "path", "line", "col", "message"}, ...],
      "suppressed": <int>,
      "by_rule": {"R001": <int>, ...},
      "exit_code": 0 | 1
    }
"""

from __future__ import annotations

import json

from .core import AnalysisReport

__all__ = ["render_text", "render_json", "render_stats"]


def render_text(report: AnalysisReport) -> str:
    """Human-readable one-line-per-finding report with a summary trailer."""
    lines = [
        f"{f.location()}: {f.rule} {f.message}" for f in report.findings
    ]
    counts = report.by_rule()
    if counts:
        breakdown = ", ".join(f"{code} x{n}" for code, n in counts.items())
        lines.append(
            f"{len(report.findings)} finding(s) in {report.files_checked} "
            f"file(s) [{breakdown}]"
            + (f"; {report.suppressed} suppressed" if report.suppressed else "")
        )
    else:
        lines.append(
            f"clean: {report.files_checked} file(s), "
            f"rules {', '.join(report.rules_run)}"
            + (f"; {report.suppressed} suppressed" if report.suppressed else "")
        )
    return "\n".join(lines) + "\n"


def render_json(report: AnalysisReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=False) + "\n"


def render_stats(report: AnalysisReport) -> str:
    """One ``repro lint --stats`` line: files checked + rule costs.

    Deliberately not part of the JSON schema -- it describes *this run*
    (timings), not the code under analysis.
    """
    stats = report.stats
    parts = [f"stats: {stats.files_checked} files"]
    timings = sorted(
        stats.rule_timings_s.items(), key=lambda kv: (-kv[1], kv[0])
    )
    if timings:
        parts.append(
            "timings "
            + ", ".join(f"{key} {sec * 1e3:.1f}ms" for key, sec in timings)
        )
    return " | ".join(parts) + "\n"
