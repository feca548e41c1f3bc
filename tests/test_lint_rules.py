"""Per-rule fixtures for repro.lint: positives, negatives, suppressions, JSON."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.lint import Violation, lint_sources, main
from repro.lint.runner import collect_files

# Fixture paths: scoped rules key off the path component after "repro/".
ENGINE = "src/repro/engine/mod.py"
NETWORK = "src/repro/network/mod.py"
MARKING = "src/repro/marking/mod.py"
RUNNER = "src/repro/runner/mod.py"
WATCHDOG = "src/repro/engine/watchdog.py"
UTIL = "src/repro/util/mod.py"
OUTSIDE = "tools/script.py"


def run_lint(path, source, select=None):
    """Lint one in-memory file; returns the report."""
    return lint_sources([(path, source)], select=select)


def rules_hit(report):
    """Set of rule ids present in a report."""
    return {v.rule for v in report.violations}


class TestD1NoWallclock:
    def test_flags_time_time_in_engine(self):
        report = run_lint(ENGINE, "import time\n\ndef f():\n    return time.time()\n")
        assert [v.rule for v in report.violations] == ["D1"]
        assert report.violations[0].line == 4

    def test_flags_from_import_perf_counter(self):
        report = run_lint(ENGINE, "from time import perf_counter\n")
        assert rules_hit(report) == {"D1"}

    def test_flags_datetime_now(self):
        report = run_lint(MARKING,
                          "import datetime\n\ndef f():\n"
                          "    return datetime.datetime.now()\n")
        assert rules_hit(report) == {"D1"}

    def test_allows_wallclock_in_runner(self):
        report = run_lint(RUNNER, "import time\n\ndef f():\n    return time.time()\n")
        assert "D1" not in rules_hit(report)

    def test_allows_wallclock_in_watchdog(self):
        report = run_lint(WATCHDOG, "import time\n\ndef f():\n    return time.time()\n")
        assert "D1" not in rules_hit(report)

    def test_allows_simulated_time_attribute(self):
        # .time on a non-`time` receiver is the simulator clock, not a host
        # clock.
        report = run_lint(ENGINE, "def f(sim):\n    return sim.time\n")
        assert "D1" not in rules_hit(report)


class TestD2NoGlobalRng:
    def test_flags_global_random_call(self):
        report = run_lint(UTIL, "import random\n\ndef f():\n    return random.random()\n")
        assert rules_hit(report) == {"D2"}

    def test_flags_unseeded_random_random_class(self):
        report = run_lint(UTIL, "import random\n\ndef f():\n    return random.Random()\n")
        assert rules_hit(report) == {"D2"}

    def test_allows_seeded_random_random(self):
        report = run_lint(UTIL, "import random\n\ndef f(s):\n    return random.Random(s)\n")
        assert "D2" not in rules_hit(report)

    def test_flags_unseeded_default_rng(self):
        report = run_lint(UTIL, "import numpy as np\n\ndef f():\n"
                                "    return np.random.default_rng()\n")
        assert rules_hit(report) == {"D2"}

    def test_allows_seeded_default_rng(self):
        report = run_lint(UTIL, "import numpy as np\n\ndef f(seed):\n"
                                "    return np.random.default_rng(seed)\n")
        assert "D2" not in rules_hit(report)

    def test_flags_np_random_module_draw(self):
        report = run_lint(UTIL, "import numpy as np\n\ndef f():\n"
                                "    return np.random.rand(3)\n")
        assert rules_hit(report) == {"D2"}

    def test_outside_repro_tree_not_checked(self):
        report = run_lint(OUTSIDE, "import random\n\ndef f():\n"
                                   "    return random.random()\n")
        assert report.ok


class TestD3OrderedIteration:
    SCHEDULING_SET_LOOP = (
        "def f(self, nodes):\n"
        "    pending = set(nodes)\n"
        "    for node in pending:\n"
        "        self.sim.schedule_call(1.0, self.visit, node)\n"
    )
    # A set turned into a list before the loop still iterates in set order.
    LISTED_SET_LOOP = (
        "def launch(self, reflectors):\n"
        "    reflector_list = list(set(reflectors))\n"
        "    for i, reflector in enumerate(reflector_list):\n"
        "        self.sim.schedule_call(i * 1.0, self.visit, reflector)\n"
    )
    CHAINED_SET_LOOP = (
        "def f(self, nodes):\n"
        "    pending = set(nodes)\n"
        "    order = list(pending)\n"
        "    for node in order:\n"
        "        self.sim.schedule_call(1.0, self.visit, node)\n"
    )

    def test_flags_set_iteration_while_scheduling(self):
        for source, line in ((self.SCHEDULING_SET_LOOP, 3),
                             (self.LISTED_SET_LOOP, 3), (self.CHAINED_SET_LOOP, 4)):
            report = run_lint(ENGINE, source)
            assert rules_hit(report) == {"D3"}
            assert [v.line for v in report.violations] == [line]

    def test_flags_keys_view_in_rng_function(self):
        source = ("def f(rng, table):\n"
                  "    return [rng.random() for key in table.keys()]\n")
        report = run_lint(ENGINE, source)
        assert rules_hit(report) == {"D3"}

    def test_sorted_wrapping_is_clean(self):
        inline = ("def f(self, nodes):\n"
                  "    for node in sorted(set(nodes)):\n"
                  "        self.sim.schedule_call(1.0, self.visit, node)\n")
        local = ("def f(self, nodes):\n"
                 "    ordered = sorted(set(nodes))\n"
                 "    for node in ordered:\n"
                 "        self.sim.schedule_call(1.0, self.visit, node)\n")
        for source in (inline, local):
            assert "D3" not in rules_hit(run_lint(ENGINE, source))

    def test_set_iteration_without_rng_or_scheduling_is_clean(self):
        report = run_lint(ENGINE, "def f(nodes):\n"
                                  "    return sum(1 for n in set(nodes))\n")
        assert "D3" not in rules_hit(report)

    def test_order_preserving_wrapper_is_unwrapped(self):
        source = ("def f(self, nodes):\n"
                  "    for node in list({1, 2, 3}):\n"
                  "        self.sim.schedule_call(1.0, self.visit, node)\n")
        report = run_lint(ENGINE, source)
        assert rules_hit(report) == {"D3"}


class TestH1NoClosureScheduling:
    def test_flags_lambda_argument(self):
        report = run_lint(ENGINE, "def f(sim):\n"
                                  "    sim.schedule_call(1.0, lambda: None)\n")
        assert rules_hit(report) == {"H1"}

    def test_flags_nested_def_argument(self):
        source = ("def f(sim):\n"
                  "    def cb():\n"
                  "        pass\n"
                  "    sim.schedule_call(1.0, cb)\n")
        report = run_lint(ENGINE, source)
        assert rules_hit(report) == {"H1"}

    def test_bound_method_with_args_is_clean(self):
        report = run_lint(ENGINE, "def f(sim, obj):\n"
                                  "    sim.schedule_call(1.0, obj.visit, 3)\n"
                                  "    sim.schedule_args(1.0, obj.visit, (3,), 'x')\n")
        assert report.ok

    @pytest.mark.parametrize("call", ["sim.schedule_args(1.0, lambda: None, ())",
                                      "sim.schedule_args(1.0, obj.visit, (lambda: 1,))",
                                      "sim.schedule_at(2.0, lambda: None)"],
                             ids=["callback", "in-args-tuple", "schedule-at"])
    def test_flags_lambda_in_schedule_args(self, call):
        callee = call.split("(")[0].split(".")[-1]
        report = run_lint(ENGINE, f"def f(sim, obj):\n    {call}\n")
        assert [(v.rule, v.message) for v in report.violations] == [
            ("H1", f"lambda passed to {callee}()")]

    def test_module_level_function_argument_is_clean(self):
        source = ("def cb():\n"
                  "    pass\n"
                  "\n"
                  "def f(sim):\n"
                  "    sim.schedule_call(1.0, cb)\n")
        report = run_lint(ENGINE, source)
        assert report.ok

    def test_applies_outside_repro_tree_too(self):
        report = run_lint(OUTSIDE, "def f(sim):\n"
                                   "    sim.schedule_call(1.0, lambda: None)\n")
        assert rules_hit(report) == {"H1"}

    def test_flags_lambda_through_forwarder(self):
        # arm_later forwards its callback parameter into schedule_call, so
        # a lambda handed to it is the same closure one call further out.
        source = ("class Injector:\n"
                  "    def arm_later(self, delay, callback):\n"
                  "        self.sim.schedule_call(delay, callback)\n"
                  "\n"
                  "def f(injector):\n"
                  "    injector.arm_later(1.0, lambda: None)\n")
        report = run_lint(ENGINE, source)
        assert [(v.rule, v.line) for v in report.violations] == [("H1", 6)]

    def test_forwarder_sharing_a_name_with_a_non_forwarder_is_clean(self):
        # Calls resolve by name: Calendar.schedule stores its callback and
        # does not forward it to the simulator, so a lambda passed to any
        # `schedule` stays clean even though FaultInjector.schedule forwards.
        calendar = ("src/repro/analysis/calendar.py",
                    "class Calendar:\n"
                    "    def schedule(self, delay, callback):\n"
                    "        self.entries.append((delay, callback))\n")
        injector = ("src/repro/faults/injector.py",
                    "class FaultInjector:\n"
                    "    def schedule(self, at_time, fn, *args):\n"
                    "        self.sim.schedule_call(at_time, fn, *args)\n"
                    "\n"
                    "def arm(injector):\n"
                    "    injector.schedule(1.0, lambda: None)\n")
        report = lint_sources([calendar, injector], select=["H1"])
        assert report.ok


class TestH2NoPerPacketCallbacks:
    """Registrations in any network/ module (the retired H2's cases) draw H3."""

    def test_flags_delivery_handler_in_network(self):
        report = run_lint(NETWORK,
                          "def wire(fabric, node, fn):\n"
                          "    fabric.add_delivery_handler(node, fn)\n")
        assert rules_hit(report) == {"H3"}
        assert report.violations[0].line == 2

    def test_flags_drop_and_transit_registrations(self):
        report = run_lint(NETWORK,
                          "def wire(fabric, node, fn):\n"
                          "    fabric.add_drop_handler(node, fn)\n"
                          "    fabric.add_transit_observer(node, fn)\n")
        assert [v.rule for v in report.violations] == ["H3", "H3"]

    def test_outside_network_tree_is_clean(self):
        # The rule scopes to hot-path network/ modules; defense or test code
        # registering handlers is legitimate consumer wiring.
        report = run_lint(MARKING,
                          "def wire(fabric, node, fn):\n"
                          "    fabric.add_delivery_handler(node, fn)\n")
        assert "H3" not in rules_hit(report)

    def test_sink_attachment_is_clean(self):
        report = run_lint(NETWORK,
                          "def wire(fabric, node, consumer):\n"
                          "    fabric.attach_delivery_sink(node, consumer)\n")
        assert report.ok

    def test_bare_name_call_is_clean(self):
        # Only attribute-style registrations count; a local helper that
        # happens to share the name is not callback wiring.
        report = run_lint(NETWORK,
                          "def f(add_delivery_handler):\n"
                          "    add_delivery_handler()\n")
        assert "H3" not in rules_hit(report)

    def test_suppression_comment_sanctions_diagnostics(self):
        report = run_lint(NETWORK,
                          "def wire(fabric, node, fn):\n"
                          "    fabric.add_delivery_handler(node, fn)"
                          "  # repro-lint: disable=H3\n")
        assert "H3" not in rules_hit(report)


class TestH3NoPerPacketPythonInBatchedPath:
    BATCHED = "src/repro/engine/batched.py"
    COLQUEUE = "src/repro/network/colqueue.py"

    def test_flags_for_loop_in_batched_engine(self):
        report = run_lint(self.BATCHED,
                          "class CohortEngine:\n"
                          "    def advance(self, rows):\n"
                          "        for row in rows:\n"
                          "            row.step()\n")
        assert rules_hit(report) == {"H3"}
        assert report.violations[0].line == 3

    def test_flags_while_loop_in_colqueue(self):
        report = run_lint(self.COLQUEUE,
                          "class DrainEngine:\n"
                          "    def run(self, queue):\n"
                          "        while queue:\n"
                          "            queue.pop()\n")
        assert rules_hit(report) == {"H3"}

    def test_flags_helper_reachable_from_advance(self):
        # The loop lives in a free function, but advance() calls it, so it
        # sits on the per-step hot path and is flagged through the call
        # graph.
        report = run_lint(self.BATCHED,
                          "class CohortEngine:\n"
                          "    def advance(self):\n"
                          "        drain(self.rows)\n"
                          "\n"
                          "def drain(rows):\n"
                          "    for row in rows:\n"
                          "        row.step()\n")
        assert rules_hit(report) == {"H3"}
        assert report.violations[0].line == 6

    def test_flags_loop_in_marking_hop_reachable_from_engine(self):
        # The schemes' columnar hops live in the marking modules: a per-row
        # loop in one sits on the cohort path once an engine reaches it,
        # while the scalar per-packet hop stays out of scope.
        engine = ("class CohortEngine:\n"
                  "    def advance(self, marking, words):\n"
                  "        marking.on_hop_array(words)\n")
        marking = ("class PpmScheme:\n"
                   "    def on_hop(self, packet):\n"
                   "        for bit in packet.bits:\n"
                   "            bit.flip()\n"
                   "\n"
                   "    def on_hop_array(self, words):\n"
                   "        for word in words:\n"
                   "            word.mark()\n")
        report = lint_sources([(self.BATCHED, engine),
                               ("src/repro/marking/ppm.py", marking)],
                              select=["H3"])
        assert [(v.path, v.line) for v in report.violations] == [
            ("src/repro/marking/ppm.py", 7)]

    def test_build_time_helper_loop_is_clean(self):
        # Loops in construction-time code (not reachable from any engine
        # run/advance method) are fine: they run once, not per step.
        report = run_lint(self.BATCHED,
                          "class CohortEngine:\n"
                          "    def advance(self):\n"
                          "        pass\n"
                          "\n"
                          "def build(rows):\n"
                          "    for row in rows:\n"
                          "        row.freeze()\n")
        assert "H3" not in rules_hit(report)

    def test_module_scope_loop_is_always_flagged(self):
        report = run_lint(self.BATCHED,
                          "ROWS = []\n"
                          "for row in ROWS:\n"
                          "    row.step()\n")
        assert "H3" in rules_hit(report)

    def test_flags_per_packet_registration(self):
        # colqueue is both a batched module and a network/ module: the one
        # registration scan reports the call once.
        report = run_lint(self.COLQUEUE,
                          "def wire(fabric, node, fn):\n"
                          "    fabric.add_delivery_handler(node, fn)\n")
        assert [v.rule for v in report.violations] == ["H3"]

    def test_comprehensions_are_allowed(self):
        report = run_lint(self.BATCHED,
                          "def columns(rows):\n"
                          "    return [row.words for row in rows]\n")
        assert "H3" not in rules_hit(report)

    def test_other_engine_modules_are_clean(self):
        report = run_lint(ENGINE,
                          "def advance(rows):\n"
                          "    for row in rows:\n"
                          "        row.step()\n")
        assert "H3" not in rules_hit(report)

    def test_suppression_comment_sanctions_setup_loop(self):
        report = run_lint(self.BATCHED,
                          "def build(topology, port):\n"
                          "    for node in topology.nodes():"
                          "  # repro-lint: disable=H3\n"
                          "        port[node] = 0\n")
        assert "H3" not in rules_hit(report)

    def test_in_tree_batched_modules_pass(self):
        # The real cohort engine and columnar queue must satisfy their own
        # rule (their sanctioned setup loops carry explicit suppressions).
        from pathlib import Path

        for module in ("src/repro/engine/batched.py",
                       "src/repro/network/colqueue.py"):
            source = Path(module).read_text()
            report = run_lint(module, source, select=["H3"])
            assert report.ok, f"{module}: {report.violations}"


class TestSuppressions:
    def test_same_line_directive(self):
        report = run_lint(ENGINE,
                          "import time\n\ndef f():\n"
                          "    return time.time()  # repro-lint: disable=D1\n")
        assert report.ok
        assert report.suppressed == 1

    def test_own_line_directive_covers_next_line(self):
        report = run_lint(ENGINE,
                          "import time\n\ndef f():\n"
                          "    # repro-lint: disable=D1\n"
                          "    return time.time()\n")
        assert report.ok

    def test_disable_file_scope(self):
        report = run_lint(ENGINE,
                          "# repro-lint: disable-file=D1\n"
                          "import time\n\ndef f():\n"
                          "    return time.time()\n\n"
                          "def g():\n"
                          "    return time.monotonic()\n")
        assert report.ok
        assert report.suppressed == 2

    def test_disable_all(self):
        report = run_lint(ENGINE,
                          "import time\n\ndef f():\n"
                          "    return time.time()  # repro-lint: disable=all\n")
        assert report.ok

    def test_directive_only_hides_named_rule(self):
        source = ("import time, random\n\ndef f():\n"
                  "    return time.time() + random.random()"
                  "  # repro-lint: disable=D2\n")
        report = run_lint(ENGINE, source)
        assert rules_hit(report) == {"D1"}
        assert report.suppressed == 1

    def test_useless_directive_draws_w1(self):
        # A suppression that matches nothing is itself a finding: stale
        # directives would otherwise silently shadow future regressions.
        source = ("import time\n\ndef f():\n"
                  "    return 1  # repro-lint: disable=D2\n")
        report = run_lint(ENGINE, source)
        assert rules_hit(report) == {"W1"}

    def test_directive_in_docstring_is_inert(self):
        source = ('"""Docs mention # repro-lint: disable-file=all here."""\n'
                  "import time\n\ndef f():\n"
                  "    return time.time()\n")
        report = run_lint(ENGINE, source)
        assert rules_hit(report) == {"D1"}


class TestParseErrors:
    def test_syntax_error_reported_as_e1(self):
        report = run_lint(ENGINE, "def broken(:\n    pass\n")
        assert rules_hit(report) == {"E1"}
        assert report.violations[0].line >= 1

    def test_suppressions_still_parse_in_broken_file(self):
        report = run_lint(ENGINE,
                          "# repro-lint: disable-file=E1\n"
                          "def broken(:\n    pass\n")
        assert report.ok


class TestSelection:
    def test_select_restricts_rules(self):
        source = ("import time, random\n\ndef f():\n"
                  "    random.random()\n"
                  "    return time.time()\n")
        report = run_lint(ENGINE, source, select=["D2"])
        assert rules_hit(report) == {"D2"}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ConfigurationError, match="unknown lint-rule 'Z9'"):
            run_lint(ENGINE, "x = 1\n", select=["Z9"])


class TestJsonRoundTrip:
    def test_report_dict_round_trips_through_violation(self):
        report = run_lint(ENGINE, "import time\n\ndef f():\n    return time.time()\n")
        data = json.loads(json.dumps(report.to_dict()))
        rebuilt = [Violation.from_dict(item) for item in data["violations"]]
        assert tuple(rebuilt) == report.violations
        assert data["ok"] is False
        assert data["files_checked"] == 1

    def test_cli_json_output_parses(self, tmp_path, capsys):
        target = tmp_path / "repro" / "engine"
        target.mkdir(parents=True)
        bad = target / "mod.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        code = main([str(bad), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["ok"] is False
        violations = [Violation.from_dict(item) for item in data["violations"]]
        assert violations[0].rule == "D1"
        assert violations[0].path == str(bad)


class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("def f():\n    return 1\n")
        assert main([str(clean)]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_violations_exit_one_with_location(self, tmp_path, capsys):
        target = tmp_path / "repro" / "engine"
        target.mkdir(parents=True)
        bad = target / "mod.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:4:" in out
        assert "D1" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        assert main([str(clean), "--select", "Z9"]) == 2
        assert "unknown lint-rule" in capsys.readouterr().err

    def test_list_rules_names_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "D1", "D2", "D3", "D4", "H1", "H3", "W1"]

    def test_collect_files_skips_caches(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        files = collect_files([str(tmp_path)])
        assert [f for f in files if "real.py" in f]
        assert not [f for f in files if "__pycache__" in f]
