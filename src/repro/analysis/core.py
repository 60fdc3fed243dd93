"""Analysis core: source loading, suppression, rule protocol, driver.

The framework is deliberately small: a :class:`SourceModule` wraps one
parsed file (source text, AST, the per-line suppression table), rules
declare a ``code``/``name``/``description`` and yield :class:`Finding`
objects, and :func:`run_analysis` walks a file set through every rule and
folds the results into an :class:`AnalysisReport` with stable exit-code
semantics (0 clean, 1 findings, 2 unusable input).

Suppression follows the repo-wide pragma convention::

    engine = something_nondeterministic()  # repro: noqa[R001] -- why

``# repro: noqa`` with no bracket suppresses every rule on that line.  A
pragma on *any* physical line of a multi-line simple statement covers the
statement's whole ``lineno..end_lineno`` span, so findings anchored on
the first line of a wrapped call are suppressible by a pragma on its
closing line (and vice versa).  Compound statements deliberately do not
spread -- a pragma inside a function body must not silence the whole
function.

The driver is incremental.  Per-file results (raw findings, the
effective suppression table, and the per-file *facts* project rules
declare through the facts API) are cached in ``.repro-lint-cache.json``
keyed by content sha256 under a rule-set signature; unchanged files are
replayed from the cache without re-parsing, changed files are analysed
in order, and the merge is deterministic regardless of cache state.
Bump :data:`RULESET_VERSION` whenever rule semantics change in a
way file content alone cannot capture -- the signature folds it in, so
every cache goes cold exactly once.

Project rules participate in incremental runs via the facts API: a class
sets ``facts_key``, implements ``extract_facts(module)`` (a classmethod
returning something JSON-serializable, cached per file) and
``project_findings(facts_by_path)``.  Rules without the facts API fall
back to the legacy path (every file parsed, ``finalize`` called with the
module list) and forfeit warm-run speed.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding",
    "SourceModule",
    "Rule",
    "ProjectRule",
    "AnalysisReport",
    "LintStats",
    "run_analysis",
    "iter_python_files",
    "PARSE_ERROR_CODE",
    "RULESET_VERSION",
    "CACHE_FILENAME",
]

#: Pseudo-rule code attached to findings for files that do not parse.
PARSE_ERROR_CODE = "E001"

#: Bump to invalidate every lint cache (rule semantics changed without a
#: per-rule ``version`` bump, driver behaviour changed, ...).
RULESET_VERSION = 1

#: Default cache file name, resolved against the analysis root.
CACHE_FILENAME = ".repro-lint-cache.json"

_CACHE_SCHEMA = 1

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class SourceModule:
    """One parsed Python source file plus its suppression table.

    ``tree`` is ``None`` when the file does not parse; the driver emits a
    :data:`PARSE_ERROR_CODE` finding instead of running rules over it.
    """

    def __init__(self, path: Path, text: str, display_path: str | None = None) -> None:
        self.path = Path(path)
        self.display_path = display_path or str(path)
        self.text = text
        self.lines = text.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            self.parse_error = exc
        self._noqa = self._scan_noqa()
        self._expand_noqa_spans()

    @classmethod
    def from_path(cls, path: Path, display_path: str | None = None) -> "SourceModule":
        return cls(path, path.read_text(encoding="utf-8"), display_path)

    # -- suppression ---------------------------------------------------

    def _scan_noqa(self) -> dict[int, frozenset[str] | None]:
        """Per-line suppressions: ``None`` means "all rules"."""
        table: dict[int, frozenset[str] | None] = {}
        for lineno, line in enumerate(self.lines, start=1):
            m = _NOQA_RE.search(line)
            if not m:
                continue
            codes = m.group("codes")
            if codes is None:
                table[lineno] = None
            else:
                table[lineno] = frozenset(
                    c.strip().upper() for c in codes.split(",") if c.strip()
                )
        return table

    def _expand_noqa_spans(self) -> None:
        """Spread pragmas across multi-line *simple* statements.

        A pragma anywhere in an ``Assign``/``Expr``/... that wraps over
        several physical lines suppresses findings anchored on any line
        of that statement.  Compound statements (anything with a body)
        are left alone so a pragma inside a ``with`` block cannot
        silence the whole block.
        """
        if self.tree is None or not self._noqa:
            return
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            if hasattr(node, "body") or hasattr(node, "cases"):
                continue
            end = getattr(node, "end_lineno", None)
            if not end or end <= node.lineno:
                continue
            span = range(node.lineno, end + 1)
            pragmas = [self._noqa[ln] for ln in span if ln in self._noqa]
            if not pragmas:
                continue
            if any(p is None for p in pragmas):
                merged: frozenset[str] | None = None
            else:
                merged = frozenset().union(*pragmas)
            for ln in span:
                existing = self._noqa.get(ln, frozenset())
                if merged is None or existing is None:
                    self._noqa[ln] = None
                else:
                    self._noqa[ln] = existing | merged

    def is_suppressed(self, rule: str, line: int) -> bool:
        return _table_suppresses(self._noqa, rule, line)

    # -- convenience ---------------------------------------------------

    def finding(self, rule: str, node: ast.AST | int, message: str) -> Finding:
        """Build a Finding anchored at an AST node (or a raw line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(rule=rule, path=self.display_path, line=line, col=col,
                       message=message)


def _table_suppresses(
    table: dict[int, frozenset[str] | None], rule: str, line: int
) -> bool:
    if line in table:
        codes = table[line]
        return codes is None or rule.upper() in codes
    return False


class Rule:
    """A per-file rule.  Subclasses set the class attributes and implement
    :meth:`check_module`."""

    code: str = ""
    name: str = ""
    description: str = ""
    #: Folded into the cache's rule-set signature; bump when the rule's
    #: semantics change so stale cached findings cannot survive.
    version: int = 1

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover

    def finalize(self, modules: Sequence[SourceModule]) -> Iterator[Finding]:
        """Hook run once after every module was checked (default: nothing)."""
        return iter(())


class ProjectRule(Rule):
    """A rule that needs the whole file set (cross-file invariants).

    Subclasses either implement the legacy :meth:`check_project` (called
    with every parsed module) or opt into the incremental facts API by
    setting ``facts_key`` and implementing :meth:`extract_facts` plus
    :meth:`project_findings`; the facts path is what keeps warm lint
    runs from re-parsing unchanged files.
    """

    #: Cache slot for this rule's per-file facts; rules sharing a key
    #: share one extractor (it runs once per file).
    facts_key: str | None = None

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        return iter(())

    @classmethod
    def extract_facts(cls, module: SourceModule) -> object | None:
        """Per-file facts (JSON-serializable) for :meth:`project_findings`."""
        return None

    def project_findings(self, facts_by_path: dict[str, object]) -> Iterator[Finding]:
        """Cross-file findings from the cached per-file facts."""
        return iter(())

    def check_project(self, modules: Sequence[SourceModule]) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover

    def finalize(self, modules: Sequence[SourceModule]) -> Iterator[Finding]:
        return self.check_project(modules)


@dataclass
class LintStats:
    """What one driver run did -- surfaced by ``repro lint --stats``."""

    files_checked: int = 0
    files_cached: int = 0
    files_analyzed: int = 0
    cache_path: str | None = None
    cache_loaded: bool = False
    #: rule code (or ``facts[<key>]`` / ``<code>.project``) -> seconds
    rule_timings_s: dict[str, float] = field(default_factory=dict)

    def add_timing(self, key: str, seconds: float) -> None:
        self.rule_timings_s[key] = self.rule_timings_s.get(key, 0.0) + seconds


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()
    #: Driver bookkeeping; intentionally NOT part of :meth:`to_dict` --
    #: the JSON report schema stays stable across cache states.
    stats: LintStats = field(default_factory=LintStats)

    @property
    def exit_code(self) -> int:
        """0 clean, 1 findings (incl. parse errors)."""
        return 1 if self.findings else 0

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": self.suppressed,
            "by_rule": self.by_rule(),
            "exit_code": self.exit_code,
        }


_SKIP_DIRS = {".git", "__pycache__", ".venv", "venv", "build", "dist",
              ".pytest_cache", ".mypy_cache", ".ruff_cache", "node_modules"}


def iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (set(p.parts) & _SKIP_DIRS)
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for p in candidates:
            rp = p.resolve()
            if rp not in seen:
                seen.add(rp)
                out.append(p)
    return out


def _display_path(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            pass
    return str(path)


# ---------------------------------------------------------------------------
# Incremental engine internals
# ---------------------------------------------------------------------------


def _is_incremental(rule: Rule) -> bool:
    return (
        isinstance(rule, ProjectRule)
        and rule.facts_key is not None
        and type(rule).project_findings is not ProjectRule.project_findings
    )


def _is_legacy_project(rule: Rule) -> bool:
    """Rules that still need the full parsed module list."""
    if _is_incremental(rule):
        return False
    if isinstance(rule, ProjectRule):
        return type(rule).check_project is not ProjectRule.check_project
    return type(rule).finalize is not Rule.finalize


def _ruleset_signature(rules: Sequence[Rule]) -> str:
    payload = "|".join(
        f"{r.code}:{getattr(type(r), 'version', 1)}"
        for r in sorted(rules, key=lambda r: r.code)
    )
    payload += f"|ruleset={RULESET_VERSION}|schema={_CACHE_SCHEMA}"
    return hashlib.sha256(payload.encode()).hexdigest()


def _fact_extractors(rules: Sequence[Rule]) -> dict[str, type]:
    """facts_key -> rule class providing the shared extractor."""
    out: dict[str, type] = {}
    for rule in rules:
        if _is_incremental(rule):
            out.setdefault(rule.facts_key, type(rule))
    return out


def _noqa_to_json(table: dict[int, frozenset[str] | None]) -> dict:
    return {
        str(line): (None if codes is None else sorted(codes))
        for line, codes in table.items()
    }


def _noqa_from_json(raw: dict) -> dict[int, frozenset[str] | None]:
    return {
        int(line): (None if codes is None else frozenset(codes))
        for line, codes in raw.items()
    }


def _analyze_file(
    path: Path, display: str, rules: Sequence[Rule], sha: str
) -> dict:
    """Produce one cache entry: raw findings, noqa table, facts, timings."""
    from repro import obs

    entry: dict = {"sha": sha, "findings": [], "noqa": {}, "facts": {},
                   "timings": {}}
    try:
        module = SourceModule.from_path(path, display)
    except (OSError, UnicodeDecodeError) as exc:
        entry["read_error"] = str(exc)
        return entry
    entry["noqa"] = _noqa_to_json(module._noqa)
    if module.tree is None:
        err = module.parse_error
        entry["parse_error"] = [
            err.lineno or 1 if err else 1,
            err.msg if err else "unparsable",
        ]
        return entry
    for rule in rules:
        with obs.host_timer(f"lint.{rule.code}") as timer:
            entry["findings"].extend(
                [f.rule, f.line, f.col, f.message]
                for f in rule.check_module(module)
            )
        entry["timings"][rule.code] = (
            entry["timings"].get(rule.code, 0.0) + timer.elapsed_s
        )
    for key, provider in _fact_extractors(rules).items():
        with obs.host_timer(f"lint.facts.{key}") as timer:
            facts = provider.extract_facts(module)
        if facts is not None:
            entry["facts"][key] = facts
        entry["timings"][f"facts[{key}]"] = timer.elapsed_s
    return entry


def _sha256_file(path: Path) -> tuple[str | None, str | None]:
    """(sha256 hex, None) on success, (None, error message) otherwise."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest(), None
    except OSError as exc:
        return None, str(exc)


def _load_cache(cache_path: Path, signature: str) -> dict[str, dict]:
    try:
        raw = json.loads(cache_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(raw, dict) or raw.get("version") != _CACHE_SCHEMA:
        return {}
    if raw.get("ruleset") != signature:
        return {}
    files = raw.get("files")
    return files if isinstance(files, dict) else {}


def _write_cache(
    cache_path: Path, signature: str, entries: dict[str, dict]
) -> None:
    from repro.faults import write_text_atomic

    slim = {
        display: {k: v for k, v in entry.items() if k != "timings"}
        for display, entry in entries.items()
        if "read_error" not in entry
    }
    payload = {"version": _CACHE_SCHEMA, "ruleset": signature, "files": slim}
    try:
        write_text_atomic(cache_path, json.dumps(payload, sort_keys=True))
    except OSError:
        pass  # a cache that cannot be written is just a cold cache


def run_analysis(
    paths: Sequence[Path | str],
    rules: Sequence[Rule],
    root: Path | str | None = None,
    *,
    cache_path: Path | str | None = None,
) -> AnalysisReport:
    """Run ``rules`` over every Python file reachable from ``paths``.

    ``root`` (when given) relativises reported paths, keeping output and
    the JSON report stable across checkouts.  ``cache_path`` enables the
    incremental engine (unchanged files replay their cached results).
    Findings, counts, and the JSON report are byte-identical across
    cache states.
    """
    from repro import obs

    root_path = Path(root) if root is not None else None
    files = iter_python_files(paths)
    report = AnalysisReport(rules_run=tuple(r.code for r in rules))
    stats = report.stats

    signature = _ruleset_signature(rules)
    cache: dict[str, dict] = {}
    if cache_path is not None:
        cache_path = Path(cache_path)
        stats.cache_path = str(cache_path)
        cache = _load_cache(cache_path, signature)
        stats.cache_loaded = bool(cache)

    # -- per-file phase: replay cached entries, analyze the rest -------
    displays = [_display_path(p, root_path) for p in files]
    entries: dict[str, dict] = {}
    todo: list[tuple[Path, str, str]] = []
    unreadable: list[tuple[str, str]] = []
    for path, display in zip(files, displays):
        sha, err = _sha256_file(path)
        if sha is None:
            unreadable.append((display, f"cannot read file: {err}"))
            continue
        cached = cache.get(display)
        if cached is not None and cached.get("sha") == sha:
            entries[display] = cached
            stats.files_cached += 1
        else:
            todo.append((path, display, sha))

    results = [
        _analyze_file(path, display, rules, sha) for path, display, sha in todo
    ]
    for (_path, display, _sha), entry in zip(todo, results):
        if "read_error" in entry:
            unreadable.append((display, f"cannot read file: {entry['read_error']}"))
            continue
        entries[display] = entry
        stats.files_analyzed += 1
        for key, seconds in entry.get("timings", {}).items():
            stats.add_timing(key, seconds)

    ordered = [d for d in displays if d in entries]
    report.files_checked = len(ordered)
    for display, message in unreadable:
        report.findings.append(Finding(PARSE_ERROR_CODE, display, 1, 0, message))

    # -- merge: dedup + suppression, deterministic across cache states --
    noqa_tables = {
        display: _noqa_from_json(entries[display].get("noqa", {}))
        for display in ordered
    }
    seen_findings: set[Finding] = set()

    def admit(finding: Finding) -> None:
        if finding in seen_findings:
            return
        seen_findings.add(finding)
        table = noqa_tables.get(finding.path)
        if table is not None and _table_suppresses(table, finding.rule, finding.line):
            report.suppressed += 1
        else:
            report.findings.append(finding)

    for display in ordered:
        entry = entries[display]
        if "parse_error" in entry:
            line, msg = entry["parse_error"]
            report.findings.append(
                Finding(PARSE_ERROR_CODE, display, line, 0, f"syntax error: {msg}")
            )
            continue
        for rule_code, line, col, message in entry.get("findings", ()):
            admit(Finding(rule_code, display, line, col, message))

    # -- project phase --------------------------------------------------
    parsed_displays = [d for d in ordered if "parse_error" not in entries[d]]
    legacy_rules = [r for r in rules if _is_legacy_project(r)]
    if legacy_rules:
        modules = _materialize_modules(files, displays, parsed_displays)
        for rule in legacy_rules:
            with obs.host_timer(f"lint.{rule.code}.project") as timer:
                for finding in rule.finalize(modules):
                    admit(finding)
            stats.add_timing(f"{rule.code}.project", timer.elapsed_s)
    for rule in rules:
        if not _is_incremental(rule):
            continue
        facts_by_path = {
            d: entries[d]["facts"][rule.facts_key]
            for d in parsed_displays
            if rule.facts_key in entries[d].get("facts", {})
        }
        with obs.host_timer(f"lint.{rule.code}.project") as timer:
            for finding in rule.project_findings(facts_by_path):
                admit(finding)
        stats.add_timing(f"{rule.code}.project", timer.elapsed_s)

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    stats.files_checked = report.files_checked

    if cache_path is not None:
        fresh = {d: entries[d] for d in ordered}
        if stats.files_analyzed or set(cache) != set(fresh):
            _write_cache(cache_path, signature, fresh)

    obs.incr("lint.files_checked", report.files_checked)
    obs.incr("lint.files_cached", stats.files_cached)
    obs.incr("lint.files_analyzed", stats.files_analyzed)
    obs.incr("lint.findings", len(report.findings))
    obs.incr("lint.suppressed", report.suppressed)
    return report


def _materialize_modules(
    files: Sequence[Path],
    displays: Sequence[str],
    parsed_displays: Sequence[str],
) -> list[SourceModule]:
    wanted = set(parsed_displays)
    modules: list[SourceModule] = []
    for path, display in zip(files, displays):
        if display not in wanted:
            continue
        try:
            module = SourceModule.from_path(path, display)
        except (OSError, UnicodeDecodeError):
            continue
        if module.tree is not None:
            modules.append(module)
    return modules
