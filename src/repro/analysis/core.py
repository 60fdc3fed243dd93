"""Analysis core: source loading, suppression, rule protocol, driver.

The framework is deliberately small: a :class:`SourceModule` wraps one
parsed file (source text, AST, its node list and import table, the
per-line suppression table), rules declare a ``code``/``name``/
``description`` and yield :class:`Finding` objects, and
:func:`run_analysis` walks a file set through every rule and folds the
results into an :class:`AnalysisReport` with stable exit-code semantics
(0 clean, 1 findings, 2 unusable input).

Suppression follows the repo-wide pragma convention::

    engine = something_nondeterministic()  # repro: noqa[R001] -- why

``# repro: noqa`` with no bracket suppresses every rule on that line.  A
pragma on *any* physical line of a multi-line simple statement covers the
statement's whole ``lineno..end_lineno`` span, so findings anchored on
the first line of a wrapped call are suppressible by a pragma on its
closing line (and vice versa).  Compound statements deliberately do not
spread -- a pragma inside a function body must not silence the whole
function.

Every run is cold: each file is parsed and walked once, and every rule
reads the module's shared node list and import table instead of walking
the tree again.  Project rules (cross-file invariants) set ``facts_key``,
implement ``extract_facts(module)`` (run once per file, shared by rules
with the same key) and ``project_findings(facts_by_path)``, which runs
once after every file was read.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path, PurePath

from .astutil import ImportTable, walk_nodes
from .callgraph import module_name_for

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
]

#: Pseudo-rule code attached to findings for files that do not parse.
PARSE_ERROR_CODE = "E001"

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

    Built once per file and shared by every rule:

    * ``nodes`` -- every AST node in :func:`ast.walk` order (empty when
      the file does not parse); :meth:`nodes_of` selects them by type
      and :meth:`owner` names a node's innermost enclosing ``def``;
    * ``imports`` -- the module's :class:`ImportTable`, relative imports
      resolved against ``module_name`` (the dotted name its display
      path implies).
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
        self.nodes: list[ast.AST] = []
        self._owners: dict[int, ast.AST | None] = {}
        if self.tree is not None:
            self.nodes, self._owners = walk_nodes(self.tree)
        self._by_type: dict[type, list[int]] = {}
        for i, node in enumerate(self.nodes):
            self._by_type.setdefault(type(node), []).append(i)
        self.module_name = module_name_for(self.display_path)
        self.imports = ImportTable(
            self.nodes_of(ast.Import, ast.ImportFrom),
            self.module_name,
            PurePath(self.display_path).name == "__init__.py",
        )
        self._noqa = self._scan_noqa()
        self._expand_noqa_spans()

    @classmethod
    def from_path(cls, path: Path, display_path: str | None = None) -> "SourceModule":
        return cls(path, path.read_text(encoding="utf-8"), display_path)

    # -- node selection ------------------------------------------------

    def nodes_of(self, *types: type[ast.AST]) -> list[ast.AST]:
        """Nodes whose exact type is one of ``types``, in walk order."""
        picked = [i for t in types for i in self._by_type.get(t, ())]
        if len(types) > 1:
            picked.sort()
        return [self.nodes[i] for i in picked]

    def owner(self, node: ast.AST) -> ast.AST | None:
        """The innermost ``def`` enclosing ``node`` (``None`` outside any
        function); a function's decorators and defaults count as inside."""
        return self._owners.get(id(node))

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
        for node in self.nodes:
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

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


class ProjectRule(Rule):
    """A rule that needs the whole file set (cross-file invariants).

    Subclasses set ``facts_key`` and implement :meth:`extract_facts` (one
    call per parsed file) and :meth:`project_findings` (one call per run,
    over every file's facts).
    """

    #: Slot for this rule's per-file facts; rules sharing a key share one
    #: extractor (it runs once per file).
    facts_key: str | None = None

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        return iter(())

    @classmethod
    def extract_facts(cls, module: SourceModule) -> object | None:
        """Per-file facts for :meth:`project_findings`."""
        return None

    def project_findings(self, facts_by_path: dict[str, object]) -> Iterator[Finding]:
        """Cross-file findings from the per-file facts."""
        return iter(())


@dataclass
class LintStats:
    """What one driver run did -- surfaced by ``repro lint --stats``."""

    files_checked: int = 0
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
    #: timings describe the run, not the code under analysis.
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


def _fact_extractors(rules: Sequence[Rule]) -> dict[str, type]:
    """facts_key -> rule class providing the shared extractor."""
    out: dict[str, type] = {}
    for rule in rules:
        if isinstance(rule, ProjectRule) and rule.facts_key is not None:
            out.setdefault(rule.facts_key, type(rule))
    return out


def run_analysis(
    paths: Sequence[Path | str],
    rules: Sequence[Rule],
    root: Path | str | None = None,
) -> AnalysisReport:
    """Run ``rules`` over every Python file reachable from ``paths``.

    ``root`` (when given) relativises reported paths, keeping output and
    the JSON report stable across checkouts.
    """
    from repro import obs

    root_path = Path(root) if root is not None else None
    report = AnalysisReport(rules_run=tuple(r.code for r in rules))
    stats = report.stats
    extractors = _fact_extractors(rules)
    facts: dict[str, dict[str, object]] = {key: {} for key in extractors}
    noqa_tables: dict[str, dict[int, frozenset[str] | None]] = {}
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

    # -- per-file phase: parse once, run every rule, extract facts -----
    for path in iter_python_files(paths):
        display = _display_path(path, root_path)
        try:
            module = SourceModule.from_path(path, display)
        except (OSError, UnicodeDecodeError) as exc:
            report.findings.append(
                Finding(PARSE_ERROR_CODE, display, 1, 0, f"cannot read file: {exc}")
            )
            continue
        report.files_checked += 1
        noqa_tables[display] = module._noqa
        if module.tree is None:
            err = module.parse_error
            report.findings.append(Finding(
                PARSE_ERROR_CODE, display, err.lineno or 1 if err else 1, 0,
                f"syntax error: {err.msg if err else 'unparsable'}",
            ))
            continue
        for rule in rules:
            with obs.host_timer(f"lint.{rule.code}") as timer:
                for finding in rule.check_module(module):
                    admit(finding)
            stats.add_timing(rule.code, timer.elapsed_s)
        for key, provider in extractors.items():
            with obs.host_timer(f"lint.facts.{key}") as timer:
                found = provider.extract_facts(module)
            if found is not None:
                facts[key][display] = found
            stats.add_timing(f"facts[{key}]", timer.elapsed_s)

    # -- project phase --------------------------------------------------
    for rule in rules:
        if not isinstance(rule, ProjectRule) or rule.facts_key is None:
            continue
        with obs.host_timer(f"lint.{rule.code}.project") as timer:
            for finding in rule.project_findings(facts[rule.facts_key]):
                admit(finding)
        stats.add_timing(f"{rule.code}.project", timer.elapsed_s)

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    stats.files_checked = report.files_checked
    obs.incr("lint.files_checked", report.files_checked)
    obs.incr("lint.findings", len(report.findings))
    obs.incr("lint.suppressed", report.suppressed)
    return report
