"""Lint run orchestration: collect, run rules, settle program-wide.

The runner is the piece the CLI, the tests, and the self-check all share.
A run has three stages:

1. **Per-file** — each ``*.py`` file is parsed once; every local rule's
   :meth:`~repro.lint.rules.Rule.check` runs, every program rule's
   :meth:`~repro.lint.rules.ProgramRule.collect` extracts facts, the
   call-graph facts are extracted, and the suppression directives are
   scanned and validated (unknown rule ids raise the structured
   ``UnknownNameError``).
2. **Settlement** — the per-file facts merge into a
   :class:`~repro.lint.callgraph.CallGraph` and each program rule's
   :meth:`~repro.lint.rules.ProgramRule.settle` computes its cross-file
   findings.
3. **Suppression + W1** — directives filter the raw findings with hit
   accounting, then rule W1 reports every directive that suppressed
   nothing.

Files that fail to parse surface as rule ``E1`` violations rather than
crashing the run, so one broken fixture cannot hide the rest of the
report.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path, PurePath
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple, Type)

from repro.errors import UnknownNameError
from repro.lint.callgraph import CallGraph, extract_file_graph
from repro.lint.determinism import (NoClosureScheduling, NoGlobalRng,
                                    NoPerPacketPythonInBatchedPath,
                                    NoWallclock, OrderedIteration,
                                    RngProvenance)
from repro.lint.rules import FileContext, Program, ProgramRule, Rule
from repro.lint.suppressions import (SuppressionIndex, UnusedSuppression,
                                     validate_directives)
from repro.lint.violations import Violation

__all__ = ["LintReport", "RULES", "collect_files", "create_rules",
           "known_rule_ids", "lint_paths", "lint_sources", "rule_classes"]

#: every rule class, sorted by id: the table behind ``--list-rules``,
#: ``--select`` and the directive check.
RULES: Tuple[Type[Rule], ...] = (
    NoWallclock, NoGlobalRng, OrderedIteration, RngProvenance,
    NoClosureScheduling, NoPerPacketPythonInBatchedPath, UnusedSuppression,
)

#: directory names never descended into during collection.
SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".hg", ".svn", ".mypy_cache", ".ruff_cache",
    ".pytest_cache", ".venv", "venv", "node_modules", ".eggs", "build",
    "dist",
})

#: pseudo-rule id for files that cannot be parsed at all.
PARSE_ERROR_RULE = "E1"


def rule_classes() -> Tuple[Type[Rule], ...]:
    """All rule classes, sorted by rule id."""
    return RULES


def known_rule_ids() -> Tuple[str, ...]:
    """Every rule id plus pseudo-rule E1, sorted."""
    return tuple(sorted({cls.rule_id for cls in RULES} | {PARSE_ERROR_RULE}))


def create_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Fresh instances of the selected rules (default: all).

    Unknown ids in ``select`` raise the structured
    :class:`repro.errors.UnknownNameError` (``kind="lint-rule"``) naming
    the known rules, so a typo in ``--select`` fails loudly instead of
    silently checking nothing.
    """
    by_id = {cls.rule_id: cls for cls in RULES}
    if select is None:
        return [cls() for cls in RULES]
    for rule_id in select:
        if rule_id not in by_id:
            raise UnknownNameError("lint-rule", rule_id, choices=tuple(by_id))
    return [by_id[rule_id]() for rule_id in select]


class LintReport:
    """Outcome of one lint run: surviving violations plus run stats."""

    def __init__(self, violations: Sequence[Violation], files_checked: int,
                 suppressed: int):
        self.violations: Tuple[Violation, ...] = tuple(sorted(violations))
        self.files_checked = files_checked
        self.suppressed = suppressed

    @property
    def ok(self) -> bool:
        """True when no violation survived suppression filtering."""
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form consumed by ``--format json`` and the tests."""
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "violations": [v.to_dict() for v in self.violations],
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"LintReport(ok={self.ok}, files={self.files_checked}, "
                f"violations={len(self.violations)}, "
                f"suppressed={self.suppressed})")


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand ``paths`` (files or directories) to a sorted list of .py files.

    Missing paths raise ``FileNotFoundError`` — a typo in the lint target
    must not report a clean run over zero files.
    """
    found: List[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            found.append(str(path))
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    # Dedup while keeping deterministic order (PurePath normalises ./ etc.).
    seen: Dict[str, None] = {}
    for item in found:
        seen.setdefault(str(PurePath(item)), None)
    return sorted(seen)


def _parse_error_violation(path: str, exc: SyntaxError) -> Violation:
    return Violation(
        path=path, line=exc.lineno or 1, col=(exc.offset or 1),
        rule=PARSE_ERROR_RULE,
        message=f"syntax error: {exc.msg}",
        hint="the file must parse before determinism rules can run",
    )


def _run(sources: Iterable[Tuple[str, str]],
         select: Optional[Sequence[str]]) -> LintReport:
    """Shared run core over ``(path, source)`` pairs."""
    rules = create_rules(select)
    known = known_rule_ids()
    active: Set[str] = {rule.rule_id for rule in rules}
    active.add(PARSE_ERROR_RULE)

    # stage 1: per-file checks, facts and directives
    raw: List[Violation] = []
    graph_facts: Dict[str, Dict[str, Any]] = {}
    facts_by_rule: Dict[str, Dict[str, Any]] = {}
    suppression_by_path: Dict[str, SuppressionIndex] = {}
    files_checked = 0
    for path, source in sources:
        files_checked += 1
        directives = SuppressionIndex.scan(source)
        validate_directives(path, directives, known)
        suppression_by_path[path] = directives
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raw.append(_parse_error_violation(path, exc))
            continue
        ctx = FileContext(path=path, source=source, tree=tree)
        graph_facts[path] = extract_file_graph(path, tree)
        for rule in rules:
            raw.extend(rule.check(ctx))
            if isinstance(rule, ProgramRule):
                collected = rule.collect(ctx)
                if collected is not None:
                    facts_by_rule.setdefault(rule.rule_id, {})[path] = collected

    # stage 2: program-wide settlement
    program = Program(CallGraph.from_facts(graph_facts), facts_by_rule)
    for rule in rules:
        if isinstance(rule, ProgramRule):
            raw.extend(rule.settle(program))

    # stage 3: suppression filtering with hit accounting, then W1
    return _settle(raw, suppression_by_path, files_checked, active)


def lint_sources(files: Iterable[Tuple[str, str]],
                 select: Optional[Sequence[str]] = None) -> LintReport:
    """Lint in-memory ``(path, source)`` pairs (the test-fixture entry point)."""
    return _run(files, select)


def lint_paths(paths: Sequence[str],
               select: Optional[Sequence[str]] = None) -> LintReport:
    """Lint files/directories on disk; the CLI entry point."""
    files = collect_files(paths)
    # unreadable files become E1 findings without aborting the run
    sources: List[Tuple[str, str]] = []
    unreadable: List[Violation] = []
    for path in files:
        try:
            sources.append((path, Path(path).read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            unreadable.append(Violation(
                path=path, line=1, col=1, rule=PARSE_ERROR_RULE,
                message=f"cannot read file: {exc}",
                hint="fix the file encoding or remove it from the lint paths",
            ))
    report = _run(sources, select)
    if not unreadable:
        return report
    return LintReport(
        violations=list(report.violations) + unreadable,
        files_checked=len(files),
        suppressed=report.suppressed,
    )


def _settle(raw: Sequence[Violation],
            suppression_by_path: Dict[str, SuppressionIndex],
            files_checked: int,
            active_rules: Set[str]) -> LintReport:
    """Apply suppression directives with hit accounting, settle W1, sort."""
    surviving: Dict[Violation, None] = {}
    suppressed = 0
    for violation in raw:
        index = suppression_by_path.get(violation.path)
        if index is not None and index.suppress(violation.rule,
                                                violation.line):
            suppressed += 1
            continue
        surviving.setdefault(violation, None)
    if UnusedSuppression.rule_id in active_rules:
        for path in sorted(suppression_by_path):
            index = suppression_by_path[path]
            for violation in UnusedSuppression.settle_directives(
                    path, index, active_rules):
                if index.suppress(UnusedSuppression.rule_id, violation.line):
                    suppressed += 1
                    continue
                surviving.setdefault(violation, None)
    return LintReport(violations=list(surviving), files_checked=files_checked,
                      suppressed=suppressed)
