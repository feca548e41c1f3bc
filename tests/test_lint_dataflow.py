"""Fixtures for the provenance checks: D4 (rng-provenance) and D1's
watchdog/profiler escape check."""

from repro.lint import lint_sources

ATTACK = "src/repro/attack/mod.py"
ENGINE = "src/repro/engine/mod.py"
MARKING = "src/repro/marking/mod.py"
RNG_SOURCE = "src/repro/engine/rng.py"
WATCHDOG = "src/repro/engine/watchdog.py"
ANALYSIS = "src/repro/analysis/mod.py"


def run_lint(*files, select=None):
    return lint_sources(list(files), select=select)


def rules_hit(report):
    return {v.rule for v in report.violations}


def sites(report):
    return [(v.path, v.line) for v in report.violations]


class TestD4RngProvenance:
    # A draw from an ad-hoc generator is reported once, at the construction.
    def test_flags_ad_hoc_creation_and_draw(self):
        report = run_lint((ATTACK,
                           "import numpy as np\n\n"
                           "def f():\n"
                           "    rng = np.random.default_rng(3)\n"
                           "    return rng.random()\n"),
                          select=["D4"])
        assert sites(report) == [(ATTACK, 4)]
        assert "ad-hoc generator construction default_rng()" in \
            report.violations[0].message

    def test_flags_module_global_generator_draw(self):
        bare = ("src/repro/defense/mod.py",
                "from numpy.random import default_rng\n"
                "G = default_rng(1)\n")
        report = run_lint((ATTACK,
                           "import numpy as np\n"
                           "G = np.random.default_rng(7)\n\n"
                           "def f():\n"
                           "    return G.random()\n"),
                          bare, select=["D4"])
        assert sites(report) == [(ATTACK, 2), (bare[0], 2)]
        assert all("ad-hoc generator construction" in v.message
                   for v in report.violations)

    def test_flags_self_attr_creation_across_methods(self):
        report = run_lint((MARKING,
                           "import numpy as np\n\n"
                           "class Scheme:\n"
                           "    def __init__(self, seed):\n"
                           "        self._rng = np.random.default_rng(seed)\n\n"
                           "    def mark(self):\n"
                           "        return self._rng.random()\n"),
                          select=["D4"])
        assert sites(report) == [(MARKING, 5)]

    def test_class_attr_origin_merges_across_files(self):
        # The creation lives in one file, the draw in another: the
        # construction is the finding, the draw's file is clean.
        ctor = (MARKING,
                "import numpy as np\n\n"
                "class Scheme:\n"
                "    def __init__(self):\n"
                "        self._rng = np.random.default_rng(1)\n")
        draw = ("src/repro/marking/other.py",
                "class Scheme:\n"
                "    def mark(self):\n"
                "        return self._rng.random()\n")
        report = run_lint(ctor, draw, select=["D4"])
        assert sites(report) == [(MARKING, 5)]

    def test_flags_foreign_generator_chain(self):
        report = run_lint((ATTACK,
                           "def f(fabric):\n"
                           "    return fabric.sim.rng.random()\n"),
                          select=["D4"])
        assert any("another component's generator" in v.message
                   for v in report.violations)

    def test_named_stream_and_parameter_draws_are_clean(self):
        report = run_lint((ATTACK,
                           "def f(sim, rng):\n"
                           "    a = sim.rng.stream('x')\n"
                           "    b = sim.fabric.rng.stream('y')\n"
                           "    return a.integers(4) + b.random() + rng.random()\n"),
                          select=["D4"])
        assert report.ok

    def test_blessed_self_attr_from_stream_is_clean(self):
        report = run_lint((MARKING,
                           "class Scheme:\n"
                           "    def __init__(self, registry):\n"
                           "        self.rng = registry.stream('scheme')\n\n"
                           "    def mark(self):\n"
                           "        return self.rng.random()\n"),
                          select=["D4"])
        assert report.ok

    def test_derive_child_result_is_clean(self):
        report = run_lint((ATTACK,
                           "from repro.engine.rng import derive_child\n\n"
                           "def f(rng):\n"
                           "    child = derive_child(rng)\n"
                           "    return child.random()\n"),
                          select=["D4"])
        assert report.ok

    def test_engine_rng_module_is_exempt(self):
        report = run_lint((RNG_SOURCE,
                           "import numpy as np\n\n"
                           "def derive_child(rng):\n"
                           "    return np.random.default_rng(int(rng.integers(2**63)))\n"),
                          select=["D4"])
        assert report.ok

    def test_non_simulation_packages_are_out_of_scope(self):
        report = run_lint((ANALYSIS,
                           "import numpy as np\n\n"
                           "def f():\n"
                           "    rng = np.random.default_rng(3)\n"
                           "    return rng.random()\n"),
                          select=["D4"])
        assert report.ok


WATCHDOG_SRC = (
    "import time\n\n"
    "class Watchdog:\n"
    "    def start(self):\n"
    "        self._t0 = time.monotonic()\n\n"
    "    def wall_elapsed(self):\n"
    "        return time.monotonic() - self._t0\n\n"
    "    def record(self, fn):\n"
    "        start = time.perf_counter()\n"
    "        out = fn()\n"
    "        self.total = time.perf_counter() - start\n"
    "        return out\n"
)


class TestD5WallclockTaintEscape:
    """Reads back out of the watchdog/profiler (the retired D5's cases) draw D1."""

    def test_flags_tainted_read_in_simulation_code(self):
        report = run_lint(
            (WATCHDOG, WATCHDOG_SRC),
            (ENGINE, "def f(sim):\n    return sim.watchdog.wall_elapsed()\n"),
            select=["D1"],
        )
        assert [v.rule for v in report.violations] == ["D1"]
        assert report.violations[0].path == ENGINE
        assert "wall_elapsed" in report.violations[0].message

    def test_flags_profiler_observables(self):
        # EventProfiler keeps its timings in a dict, so no attribute store
        # marks them; every read back out of the profiler is a finding.
        report = run_lint(
            (ENGINE, "def f(sim):\n"
                     "    total = sim.profile.total_time\n"
                     "    return total, sim.profile.entries()\n"),
            select=["D1"],
        )
        assert [(v.rule, v.line) for v in report.violations] == [
            ("D1", 2), ("D1", 3)]

    def test_untainted_reads_through_watchdog_are_clean(self):
        report = run_lint(
            (WATCHDOG, WATCHDOG_SRC),
            (ENGINE, "def f(sim):\n    return sim.watchdog.check_interval\n"),
            select=["D1"],
        )
        assert report.ok

    def test_stores_and_statement_calls_are_clean(self):
        report = run_lint(
            (ENGINE, "def f(sim, fn):\n"
                     "    sim.profile.sim = sim\n"
                     "    sim.watchdog.livelocked_packets += 1\n"
                     "    sim.profile.record(fn, (), '')\n"
                     "    if sim.profile is not None:\n"
                     "        sim.watchdog.check_stall(sim)\n"),
            select=["D1"],
        )
        assert report.ok

    def test_reads_outside_simulation_packages_are_clean(self):
        report = run_lint(
            (WATCHDOG, WATCHDOG_SRC),
            ("src/repro/runner/mod.py",
             "def f(sim):\n    return sim.watchdog.wall_elapsed()\n"),
            select=["D1"],
        )
        assert report.ok

    def test_no_exports_means_no_findings(self):
        # Calling the profiler as a statement times the callee and uses no
        # value from it; reading record()'s result would be a finding.
        profiler = ("src/repro/engine/profile.py",
                    "import time\n\n"
                    "class EventProfiler:\n"
                    "    def record(self, fn):\n"
                    "        start = time.perf_counter()\n"
                    "        return fn()\n")
        report = run_lint(
            profiler,
            (ENGINE, "def f(sim):\n    sim.profiler.record(len)\n"),
            select=["D1"],
        )
        assert report.ok
