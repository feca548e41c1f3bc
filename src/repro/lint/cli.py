"""Command-line front end: ``python -m repro.lint src tests``.

Exit codes follow the compiler convention the Makefile and CI key off:

* ``0`` — every checked file is clean (after suppressions);
* ``1`` — at least one violation survived;
* ``2`` — usage error (unknown rule id, missing path, bad directive).

``--format json`` swaps the human report for a machine-readable document
(see :meth:`repro.lint.runner.LintReport.to_dict`). ``--select``
restricts the run to a comma/space-separated subset of rule ids (unknown
ids are a usage error); ``--list-rules`` prints the rule table and exits.

Runs over disk paths use the per-file content-hash cache
(``.repro-lint-cache.json``) so repeat runs on an unchanged tree skip
the per-file analysis entirely; ``--no-cache`` forces a cold run and
``--cache-path`` relocates the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.lint.cache import DEFAULT_CACHE_PATH, LintCache
from repro.lint.runner import LintReport, known_rule_ids, lint_paths, rule_classes

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro.lint`` (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Whole-program determinism and invariant linter for the "
                    "repro codebase.",
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to lint "
                             "(default: src tests)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="format",
                        help="report format (default: text)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all rules)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the per-file result "
                             "cache")
    parser.add_argument("--cache-path", default=DEFAULT_CACHE_PATH,
                        metavar="FILE",
                        help=f"cache file location (default: "
                             f"{DEFAULT_CACHE_PATH})")
    return parser


def _parse_select(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    chosen = [part.strip() for part in raw.replace(",", " ").split()
              if part.strip()]
    return chosen or None


def _print_rule_table(stream: IO[str]) -> None:
    rows = [(cls.rule_id, cls.name, cls.description)
            for cls in rule_classes()]
    id_width = max(len(r[0]) for r in rows)
    name_width = max(len(r[1]) for r in rows)
    for rule_id, name, description in rows:
        stream.write(f"{rule_id:<{id_width}}  {name:<{name_width}}  "
                     f"{description}\n")


def _print_report(report: LintReport, stream: IO[str]) -> None:
    for violation in report.violations:
        stream.write(violation.format() + "\n")
    summary = (f"{len(report.violations)} violation(s) in "
               f"{report.files_checked} file(s)")
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    if report.cache_hits or report.cache_misses:
        summary += (f" [cache: {report.cache_hits} hit(s), "
                    f"{report.cache_misses} miss(es)]")
    stream.write(summary + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns the process exit code (0 clean, 1 findings, 2 usage)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rule_table(sys.stdout)
        return 0
    select = _parse_select(args.select)
    try:
        cache = None
        if not args.no_cache:
            selected_ids = select if select is not None else list(known_rule_ids())
            cache = LintCache(args.cache_path, selected_ids)
        report = lint_paths(args.paths, select=select, cache=cache)
    except (ConfigurationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        _print_report(report, sys.stdout)
    return 0 if report.ok else 1
