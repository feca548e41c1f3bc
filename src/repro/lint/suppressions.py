"""Suppression directives: opting one line (or one file) out of one rule.

Two directive forms, written in comments:

``# repro-lint: disable=D3`` (or ``disable=D1,D3`` / ``disable=all``)
    Suppresses the listed rules on the directive's own line. When the
    comment stands alone on its line, it also covers the *next* line, so
    multi-line statements can carry a preceding-line directive::

        # repro-lint: disable=R1  -- not name-constructible
        class TableRouter(Router):
            ...

``# repro-lint: disable-file=D2`` (or ``disable-file=all``)
    Suppresses the listed rules for the whole file, wherever it appears.

Comments are found with :mod:`tokenize` so directive text inside string
literals or docstrings (like the examples above) is never misread as a
live directive; files that fail to tokenize fall back to a line scan.

Suppressions are deliberately *per rule*: there is no bare ``disable``.
Every opt-out names what it is opting out of, which keeps ``git grep
'repro-lint: disable'`` an accurate inventory of the determinism
contract's known exceptions.

Two guards keep that inventory honest:

* a directive naming a rule id that does not exist is rejected with the
  structured :class:`repro.errors.UnknownNameError` (``kind="lint-rule"``)
  — a typo'd directive must not silently suppress nothing
  (:func:`validate_directives`, called by the runner per file);
* a directive that suppresses nothing in the current run is itself a
  finding — rule **W1** (``unused-suppression``, the ruff ``unused-noqa``
  analogue), settled centrally by the runner after all other rules ran.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import UnknownNameError
from repro.lint.rules import Rule
from repro.lint.violations import Violation

__all__ = ["Directive", "SuppressionIndex", "UnusedSuppression", "DIRECTIVE_RE",
           "validate_directives"]

#: matches a line or file directive inside a comment: the ``repro-lint:``
#: marker followed by disable or disable-file, ``=``, and the rule list.
DIRECTIVE_RE = re.compile(
    r"repro-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


def _parse_rules(raw: str) -> Tuple[str, ...]:
    return tuple(sorted({part.strip() for part in raw.split(",") if part.strip()}))


class Directive:
    """One parsed suppression directive and its usage accounting."""

    __slots__ = ("line", "scope", "rules", "own_line", "hits")

    def __init__(self, line: int, scope: str, rules: Tuple[str, ...],
                 own_line: bool = False):
        self.line = line
        #: ``"file"`` or ``"line"``
        self.scope = scope
        self.rules = rules
        #: a comment-only directive also shields the following line
        self.own_line = own_line
        #: raw violations this directive suppressed during settlement
        self.hits = 0

    def matches(self, rule: str, line: int) -> bool:
        """Would this directive suppress ``rule`` reported at ``line``?"""
        if rule not in self.rules and "all" not in self.rules:
            return False
        if self.scope == "file":
            return True
        if line == self.line:
            return True
        return self.own_line and line == self.line + 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (cached by the incremental runner)."""
        return {"line": self.line, "scope": self.scope,
                "rules": list(self.rules), "own_line": self.own_line}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Directive":
        """Rebuild from :meth:`to_dict` output."""
        rules_raw = data["rules"]
        assert isinstance(rules_raw, list)
        return cls(line=int(data["line"]),  # type: ignore[call-overload]
                   scope=str(data["scope"]),
                   rules=tuple(str(r) for r in rules_raw),
                   own_line=bool(data.get("own_line", False)))


class SuppressionIndex:
    """Per-file list of suppression directives, queried by (rule, line)."""

    def __init__(self, directives: Optional[List[Directive]] = None) -> None:
        self.directives: List[Directive] = directives or []

    # -- construction ----------------------------------------------------
    @classmethod
    def scan(cls, source: str) -> "SuppressionIndex":
        """Build the index for one file's source text."""
        index = cls()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            index._scan_lines(source)
            return index
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            line_no = token.start[0]
            before = token.line[: token.start[1]]
            index._add_directive(token.string, line_no,
                                 own_line=not before.strip())
        return index

    @classmethod
    def from_directives(cls, records: Sequence[Dict[str, object]]) -> "SuppressionIndex":
        """Rebuild an index from cached :meth:`Directive.to_dict` records."""
        return cls([Directive.from_dict(record) for record in records])

    def _scan_lines(self, source: str) -> None:
        """Degraded-mode scan for files tokenize rejects (syntax errors)."""
        for line_no, text in enumerate(source.splitlines(), start=1):
            if "#" not in text:
                continue
            comment = text[text.index("#"):]
            self._add_directive(comment, line_no,
                                own_line=not text[: text.index("#")].strip())

    def _add_directive(self, comment: str, line_no: int, own_line: bool) -> None:
        match = DIRECTIVE_RE.search(comment)
        if match is None:
            return
        rules = _parse_rules(match.group("rules"))
        if match.group("scope") == "disable-file":
            self.directives.append(Directive(line_no, "file", rules))
            return
        self.directives.append(Directive(line_no, "line", rules,
                                         own_line=own_line))

    # -- queries ----------------------------------------------------------
    def suppress(self, rule: str, line: int) -> bool:
        """True when ``rule`` at ``line`` is suppressed; counts the hit."""
        hit = False
        for directive in self.directives:
            if directive.matches(rule, line):
                directive.hits += 1
                hit = True
        return hit

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Read-only query (no usage accounting)."""
        return any(d.matches(rule, line) for d in self.directives)

    def reset_hits(self) -> None:
        """Clear usage accounting before a settlement pass."""
        for directive in self.directives:
            directive.hits = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"SuppressionIndex({[d.to_dict() for d in self.directives]!r})"


def validate_directives(path: str, index: SuppressionIndex,
                        known: Sequence[str]) -> None:
    """Reject directives naming unknown rule ids.

    Raises the structured :class:`repro.errors.UnknownNameError`
    (``kind="lint-rule"``) naming the file and line, so a typo'd directive
    fails the run loudly instead of silently suppressing nothing.
    """
    known_set = set(known)
    known_set.add("all")
    for directive in index.directives:
        for rule_id in directive.rules:
            if rule_id not in known_set:
                exc = UnknownNameError("lint-rule", rule_id,
                                       choices=tuple(known))
                exc.args = (f"{path}:{directive.line}: {exc.args[0]}",)
                raise exc


class UnusedSuppression(Rule):
    """W1: a suppression directive must actually suppress something.

    The runner settles this rule centrally (it needs the full raw
    violation stream, including program-rule findings, before usage can
    be decided); the class exists so W1 shows up in ``--list-rules``,
    participates in ``--select``, and documents itself like every other
    rule. ``check`` is intentionally empty.
    """

    rule_id = "W1"
    name = "unused-suppression"
    description = (
        "a `# repro-lint: disable=<rule>` directive that suppresses no "
        "finding in this run is dead weight (the ruff unused-noqa "
        "analogue); remove it so the suppression inventory stays accurate"
    )
    hint = "delete the stale directive (or narrow it to the rules still firing)"

    @staticmethod
    def settle_directives(
            path: str, index: SuppressionIndex,
            active_rules: Iterable[str]) -> Iterable[Violation]:
        """W1 violations for ``path`` after a hit-counted settlement pass.

        Only directives fully covered by ``active_rules`` are judged: in a
        ``--select`` subset run, a directive for an unselected rule had no
        chance to be used and is not reported.
        """
        active: Set[str] = set(active_rules)
        rule = UnusedSuppression
        for directive in index.directives:
            if directive.hits:
                continue
            if "all" in directive.rules or not set(directive.rules) <= active:
                continue
            ids = ",".join(directive.rules)
            scope = ("file-wide " if directive.scope == "file" else "")
            yield Violation(
                path=path, line=directive.line, col=1, rule=rule.rule_id,
                message=(f"{scope}suppression of {ids} suppresses nothing "
                         "in this run"),
                hint=rule.hint,
            )
