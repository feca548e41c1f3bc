"""Lint run orchestration: collect, cache, run rules, settle program-wide.

The runner is the piece the CLI, the tests, and the self-check all share.
A run has three stages:

1. **Per-file** — each ``*.py`` file is parsed once; every local rule's
   :meth:`~repro.lint.rules.Rule.check` runs, every program rule's
   :meth:`~repro.lint.rules.ProgramRule.collect` extracts facts, the
   call-graph facts are extracted, and the suppression directives are
   scanned and validated (unknown rule ids raise the structured
   ``UnknownNameError``). Everything this stage produces depends only on
   the file's text, so with a :class:`~repro.lint.cache.LintCache` the
   whole stage is skipped per unchanged file.
2. **Settlement** — the per-file facts merge into a
   :class:`~repro.lint.callgraph.CallGraph` and each program rule's
   :meth:`~repro.lint.rules.ProgramRule.settle` computes its cross-file
   findings. Always re-runs (it is cheap and inherently global).
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
from repro.lint.cache import LintCache, content_hash
from repro.lint.callgraph import CallGraph, extract_file_graph
from repro.lint.dataflow import RngProvenance
from repro.lint.determinism import (NoClosureScheduling, NoGlobalRng,
                                    NoPerPacketPythonInBatchedPath,
                                    NoWallclock, OrderedIteration)
from repro.lint.registrycheck import RegistryCompleteness
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
    NoClosureScheduling, NoPerPacketPythonInBatchedPath,
    RegistryCompleteness, UnusedSuppression,
)

#: directory names never descended into during collection.
SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".hg", ".svn", ".mypy_cache", ".ruff_cache",
    ".pytest_cache", ".venv", "venv", "node_modules", ".eggs", "build",
    "dist",
})

#: pseudo-rule id for files that cannot be parsed at all.
PARSE_ERROR_RULE = "E1"

#: pseudo-key under which call-graph facts ride in the cache entry.
CALLGRAPH_FACTS_KEY = "@callgraph"


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
                 suppressed: int, cache_hits: int = 0, cache_misses: int = 0):
        self.violations: Tuple[Violation, ...] = tuple(sorted(violations))
        self.files_checked = files_checked
        self.suppressed = suppressed
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses

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
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
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


class _FileResult:
    """Everything stage 1 produces for one file (cache entry shape)."""

    __slots__ = ("violations", "facts", "directives", "parse_error")

    def __init__(self, violations: List[Violation],
                 facts: Dict[str, Any],
                 directives: SuppressionIndex,
                 parse_error: Optional[Violation]):
        self.violations = violations
        #: rule_id (or CALLGRAPH_FACTS_KEY) -> collected facts
        self.facts = facts
        self.directives = directives
        self.parse_error = parse_error

    def to_entry(self) -> Dict[str, Any]:
        return {
            "violations": [v.to_dict() for v in self.violations],
            "facts": self.facts,
            "directives": [d.to_dict() for d in self.directives.directives],
            "parse_error": (None if self.parse_error is None
                            else self.parse_error.to_dict()),
        }

    @classmethod
    def from_entry(cls, entry: Dict[str, Any]) -> "_FileResult":
        parse_error = entry.get("parse_error")
        return cls(
            violations=[Violation.from_dict(v)
                        for v in entry.get("violations", ())],
            facts=dict(entry.get("facts", {})),
            directives=SuppressionIndex.from_directives(
                entry.get("directives", ())),
            parse_error=(None if parse_error is None
                         else Violation.from_dict(parse_error)),
        )


def _parse_error_violation(path: str, exc: SyntaxError) -> Violation:
    return Violation(
        path=path, line=exc.lineno or 1, col=(exc.offset or 1),
        rule=PARSE_ERROR_RULE,
        message=f"syntax error: {exc.msg}",
        hint="the file must parse before determinism rules can run",
    )


def _check_file(path: str, source: str, rules: Sequence[Rule]) -> _FileResult:
    """Stage 1 for one file: local checks, fact collection, directives."""
    directives = SuppressionIndex.scan(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return _FileResult([], {}, directives,
                           parse_error=_parse_error_violation(path, exc))
    ctx = FileContext(path=path, source=source, tree=tree)
    violations: List[Violation] = []
    facts: Dict[str, Any] = {CALLGRAPH_FACTS_KEY: extract_file_graph(path, tree)}
    for rule in rules:
        violations.extend(rule.check(ctx))
        if isinstance(rule, ProgramRule):
            collected = rule.collect(ctx)
            if collected is not None:
                facts[rule.rule_id] = collected
    return _FileResult(violations, facts, directives, parse_error=None)


def _run(sources: Iterable[Tuple[str, str]],
         select: Optional[Sequence[str]],
         cache: Optional[LintCache]) -> LintReport:
    """Shared run core over ``(path, source)`` pairs."""
    rules = create_rules(select)
    known = known_rule_ids()
    active: Set[str] = {rule.rule_id for rule in rules}
    active.add(PARSE_ERROR_RULE)

    results: Dict[str, _FileResult] = {}
    files_checked = 0
    for path, source in sources:
        files_checked += 1
        result: Optional[_FileResult] = None
        digest = None
        if cache is not None:
            digest = content_hash(source)
            entry = cache.get(path, digest)
            if entry is not None:
                result = _FileResult.from_entry(entry)
        if result is None:
            result = _check_file(path, source, rules)
            if cache is not None and digest is not None:
                cache.put(path, digest, result.to_entry())
        validate_directives(path, result.directives, known)
        results[path] = result
    if cache is not None:
        cache.save()

    # stage 2: program-wide settlement
    raw: List[Violation] = []
    callgraph_facts: Dict[str, Dict[str, Any]] = {}
    facts_by_rule: Dict[str, Dict[str, Any]] = {}
    for path, result in results.items():
        if result.parse_error is not None:
            raw.append(result.parse_error)
            continue
        raw.extend(result.violations)
        for key, facts in result.facts.items():
            if key == CALLGRAPH_FACTS_KEY:
                callgraph_facts[path] = facts
            else:
                facts_by_rule.setdefault(key, {})[path] = facts
    program = Program(CallGraph.from_facts(callgraph_facts), facts_by_rule)
    for rule in rules:
        if isinstance(rule, ProgramRule):
            raw.extend(rule.settle(program))

    # stage 3: suppression filtering with hit accounting, then W1
    suppression_by_path = {path: result.directives
                           for path, result in results.items()}
    return _settle(raw, suppression_by_path, files_checked, active,
                   cache_hits=cache.hits if cache else 0,
                   cache_misses=cache.misses if cache else 0)


def lint_sources(files: Iterable[Tuple[str, str]],
                 select: Optional[Sequence[str]] = None) -> LintReport:
    """Lint in-memory ``(path, source)`` pairs (the test-fixture entry point)."""
    return _run(files, select, cache=None)


def lint_paths(paths: Sequence[str],
               select: Optional[Sequence[str]] = None,
               cache: Optional[LintCache] = None) -> LintReport:
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
    report = _run(sources, select, cache)
    if not unreadable:
        return report
    return LintReport(
        violations=list(report.violations) + unreadable,
        files_checked=len(files),
        suppressed=report.suppressed,
        cache_hits=report.cache_hits,
        cache_misses=report.cache_misses,
    )


def _settle(raw: Sequence[Violation],
            suppression_by_path: Dict[str, SuppressionIndex],
            files_checked: int,
            active_rules: Set[str],
            cache_hits: int = 0,
            cache_misses: int = 0) -> LintReport:
    """Apply suppression directives with hit accounting, settle W1, sort."""
    for index in suppression_by_path.values():
        index.reset_hits()
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
                      suppressed=suppressed, cache_hits=cache_hits,
                      cache_misses=cache_misses)
