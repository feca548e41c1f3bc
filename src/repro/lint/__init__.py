"""repro.lint — whole-program determinism and invariant linter.

The simulation's headline guarantee is seed-for-seed reproducibility: the
same :class:`~repro.core.config.ExperimentConfig` and seed must produce the
same traceback result on every machine, every run. Most regressions against
that guarantee are *statically visible* — a ``time.time()`` call in the
engine, a module-level ``random`` draw, iteration over a ``set`` while
scheduling events — so this package checks them at lint time instead of
waiting for a golden-equivalence diff to catch the symptom.

Rules come in two shapes. Local rules judge one file's syntax. Program
rules collect per-file facts and settle against a project-wide call graph
(:mod:`repro.lint.callgraph`), so "schedules events" and "runs on the
cohort-advance path" are reachability queries, not guesses. A per-file
content-hash cache (:mod:`repro.lint.cache`) makes repeat runs on an
unchanged tree near-instant. Bare ``except:`` is left to ruff (E722),
which CI runs over ``src`` and ``tests``.

Rules
-----
====  ====================  ===================================================
id    name                  invariant
====  ====================  ===================================================
D1    no-wallclock          no wall-clock time sources inside the simulation
                            perimeter (engine/network/routing/marking/faults),
                            and no values read back out of the exempt
                            watchdog/profiler there
D2    no-global-rng         no global or unseeded RNG anywhere under
                            ``src/repro`` — randomness flows from named
                            ``RngRegistry`` streams
D3    ordered-iteration     no iteration over sets or ``dict.keys()`` in
                            functions that schedule events or consume RNG
                            (directly or through any call chain)
D4    rng-provenance        every draw in simulation code traces to a named
                            ``engine.rng`` stream — no ad-hoc generators, no
                            borrowing another component's stream
H1    no-closure-scheduling no lambdas / nested functions passed to
                            ``Simulator.schedule_call`` (directly or via a
                            forwarding wrapper)
H3    no-per-packet-python-in-batched-path
                            no per-row Python loops reachable from the
                            cohort-advance roots in the batched modules
                            (build-time code exempt), and no per-packet
                            callback registrations there or in ``network/``
R1    registry-completeness concrete Router/MarkingScheme/FaultSpec classes
                            registered (live-object constructors auto-exempt);
                            spec classes serializable; registry lookups raise
                            UnknownNameError
W1    unused-suppression    every ``# repro-lint: disable=`` directive must
                            suppress something in the current run
E1    (parse error)         pseudo-rule reported for unparseable files
====  ====================  ===================================================

Suppress a finding with ``# repro-lint: disable=<rule>`` on (or directly
above) the offending line, or ``# repro-lint: disable-file=<rule>`` for a
whole file; directives naming unknown rules are a usage error. Run
``python -m repro.lint --list-rules`` for the live table.
"""

from __future__ import annotations

from repro.lint.cache import LintCache
from repro.lint.callgraph import CallGraph, extract_file_graph
from repro.lint.cli import main
from repro.lint.rules import FileContext, Program, ProgramRule, Rule
from repro.lint.runner import (LintReport, collect_files, create_rules,
                               known_rule_ids, lint_paths, lint_sources,
                               rule_classes)
from repro.lint.suppressions import SuppressionIndex
from repro.lint.violations import Violation

__all__ = [
    "CallGraph",
    "FileContext",
    "LintCache",
    "LintReport",
    "Program",
    "ProgramRule",
    "Rule",
    "SuppressionIndex",
    "Violation",
    "collect_files",
    "create_rules",
    "extract_file_graph",
    "known_rule_ids",
    "lint_paths",
    "lint_sources",
    "main",
    "rule_classes",
]
