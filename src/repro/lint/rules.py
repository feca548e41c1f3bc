"""Lint-rule interface.

Two rule shapes share the :class:`Rule` base:

* **local rules** inspect one parsed file at a time through
  :meth:`Rule.check` — their findings depend only on that file's text, so
  the incremental runner can cache them per content hash;
* **program rules** (subclasses of :class:`ProgramRule`) extract
  JSON-serializable *facts* per file through :meth:`ProgramRule.collect`
  and emit findings once every file has been seen, in
  :meth:`ProgramRule.settle`, with access to the whole-program
  :class:`~repro.lint.callgraph.CallGraph` via the :class:`Program`
  handed to them. Facts are cacheable; settlement is cheap and always
  re-runs.

Rules are *stateful per run*, so
:func:`repro.lint.runner.create_rules` hands each run fresh instances of
the classes listed in :data:`repro.lint.runner.RULES`.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.violations import Violation

__all__ = ["FileContext", "Program", "ProgramRule", "Rule"]


class FileContext:
    """Everything a rule may inspect about one file.

    Attributes
    ----------
    path:
        Display path (as reported in violations) — relative to the
        invocation directory, POSIX separators.
    source:
        Raw file text.
    tree:
        Parsed ``ast.Module``.
    repro_parts:
        Path components *after* the last ``repro`` package directory
        (e.g. ``("engine", "simulator.py")``), or ``None`` when the file
        is not inside a ``repro`` package tree (tests, benchmarks,
        fixtures). Path-scoped rules key their applicability off this.
    """

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.repro_parts = self._compute_repro_parts(path)

    @staticmethod
    def _compute_repro_parts(path: str) -> Optional[Tuple[str, ...]]:
        parts = PurePath(path).parts
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "repro" and index < len(parts) - 1:
                return tuple(parts[index + 1:])
        return None

    def repro_module(self) -> Optional[str]:
        """Slash-joined path under the repro package, or None outside it."""
        if self.repro_parts is None:
            return None
        return "/".join(self.repro_parts)

    def violation(self, rule: "Rule", node: ast.AST, message: str,
                  hint: Optional[str] = None) -> Violation:
        """Violation anchored at ``node`` in this file."""
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.rule_id,
            message=message,
            hint=rule.hint if hint is None else hint,
        )


class Program:
    """Whole-run view handed to :meth:`ProgramRule.settle`.

    Attributes
    ----------
    callgraph:
        The merged :class:`~repro.lint.callgraph.CallGraph` over every
        linted file.
    """

    def __init__(self, callgraph: CallGraph,
                 facts_by_rule: Dict[str, Dict[str, Any]]):
        self.callgraph = callgraph
        self._facts_by_rule = facts_by_rule

    def facts(self, rule_id: str) -> Dict[str, Any]:
        """``path -> facts`` collected by the rule with ``rule_id``."""
        return self._facts_by_rule.get(rule_id, {})


class Rule:
    """One statically checkable project invariant (local, per-file shape).

    Class attributes declare identity and documentation; subclasses
    implement :meth:`check` (per file).
    """

    #: short stable id used in reports and suppression comments (e.g. "D1")
    rule_id: str = ""
    #: dashed human name (e.g. "no-wallclock")
    name: str = ""
    #: one-line description for ``--list-rules`` and the docs table
    description: str = ""
    #: default fix hint attached to violations
    hint: str = ""

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        """Findings for one file."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Rule {self.rule_id} {self.name}>"


class ProgramRule(Rule):
    """A rule whose findings need the whole program (call graph, all files).

    Subclasses implement :meth:`collect` — returning a JSON-serializable
    facts object per file (or ``None``) — and :meth:`settle`, which turns
    the merged facts plus the call graph into violations. ``check`` stays
    empty: program rules never report from a single file alone.
    """

    def collect(self, ctx: FileContext) -> Optional[Dict[str, Any]]:
        """Extract this file's facts (must be JSON-serializable)."""
        return None

    def settle(self, program: Program) -> Iterable[Violation]:
        """Findings computed over the merged program facts."""
        return ()
