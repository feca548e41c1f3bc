"""Unit tests for the runtime SimSanitizer and its engine wiring."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine.sanitize import (
    GuardedGenerator,
    GuardedRngRegistry,
    SanitizerReport,
    SimSanitizer,
)
from repro.engine.simulator import Simulator
from repro.errors import SanitizerError, SimulationError


def exec_as(module_name, source):
    """Execute ``source`` as if it were the module ``module_name``."""
    namespace = {"__name__": module_name}
    exec(compile(source, f"<{module_name}>", "exec"), namespace)
    return namespace


OWNER_SRC = "def touch(stream):\n    stream.random()\n"
THIEF_SRC = "def siphon(stream):\n    return stream.random()\n"


def _noop():
    pass


class TestGuardedRng:
    def test_guarded_draws_match_bare_draws(self):
        bare = Simulator(seed=11, sanitize=False)
        guarded = Simulator(seed=11, sanitize=True)
        for name in ("traffic:0", "marking:tree", "arb:3"):
            a = [int(bare.rng.stream(name).integers(1 << 20))
                 for _ in range(8)]
            b = [int(guarded.rng.stream(name).integers(1 << 20))
                 for _ in range(8)]
            assert a == b

    def test_stream_returns_cached_guard(self):
        sim = Simulator(sanitize=True)
        assert sim.rng.stream("x") is sim.rng.stream("x")
        assert isinstance(sim.rng.stream("x"), GuardedGenerator)

    def test_spawn_returns_guarded_child(self):
        sim = Simulator(seed=5, sanitize=True)
        child = sim.rng.spawn("sub")
        assert isinstance(child, GuardedRngRegistry)
        bare_child = Simulator(seed=5, sanitize=False).rng.spawn("sub")
        assert child.seed == bare_child.seed

    def test_reset_with_seed_keeps_guarding(self):
        sim = Simulator(seed=1, sanitize=True)
        sim.reset(seed=2)
        assert isinstance(sim.rng, GuardedRngRegistry)
        assert sim.rng.seed == 2

    def test_non_draw_attributes_pass_through(self):
        sim = Simulator(sanitize=True)
        stream = sim.rng.stream("x")
        assert stream.bit_generator is not None


class TestCrossUse:
    def test_cross_package_draw_raises(self):
        sim = Simulator(sanitize=True)
        stream = sim.rng.stream("marking:tree")
        owner = exec_as("repro.marking.fake_owner", OWNER_SRC)
        thief = exec_as("repro.attack.fake_thief", THIEF_SRC)
        owner["touch"](stream)
        with pytest.raises(SanitizerError) as excinfo:
            thief["siphon"](stream)
        report = excinfo.value.report
        assert report.kind == "rng-cross-use"
        assert report.subject == "marking:tree"
        assert "repro.marking" in report.detail
        assert "repro.attack" in report.detail

    def test_same_package_draws_are_fine(self):
        sim = Simulator(sanitize=True)
        stream = sim.rng.stream("marking:tree")
        owner = exec_as("repro.marking.fake_owner", OWNER_SRC)
        owner["touch"](stream)
        owner["touch"](stream)

    def test_untracked_draws_never_claim_ownership(self):
        # Draws straight from test code (no repro frame) are unattributed:
        # harness code may inspect any stream freely.
        sim = Simulator(sanitize=True)
        stream = sim.rng.stream("traffic:7")
        stream.random()
        owner = exec_as("repro.attack.fake_owner", OWNER_SRC)
        owner["touch"](stream)  # first tracked draw claims it

    def test_draw_counts_accumulate(self):
        sim = Simulator(sanitize=True)
        sim.rng.stream("a").random()
        sim.rng.stream("a").random()
        assert sim.sanitizer.draw_counts["a"] == 2


class _FakeChannel:
    def __init__(self, credits, capacity, queue=(), busy=False, failed=False):
        self.credits = credits
        self.buffer_capacity = capacity
        self.queue = list(queue)
        self.busy = busy
        self.failed = failed


class TestCreditConservation:
    def test_leaked_credit_raises(self):
        sanitizer = SimSanitizer()
        channels = {(0, 1): _FakeChannel(3, 4)}
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check_credits(channels)
        report = excinfo.value.report
        assert report.kind == "credit-leak"
        assert report.subject == "0->1"

    def test_busy_failed_and_queued_channels_are_skipped(self):
        sanitizer = SimSanitizer()
        sanitizer.check_credits({
            (0, 1): _FakeChannel(3, 4, busy=True),
            (1, 2): _FakeChannel(3, 4, failed=True),
            (2, 3): _FakeChannel(3, 4, queue=[object()]),
            (3, 4): _FakeChannel(4, 4),
        })


def _key(chan, slot):
    return (chan << 32) | slot


def _store(**changes):
    """A cohort engine's parked store after one admission at quota 1:
    channel 1 admits slot 1 and keeps slots 5 and 7 cold, channel 2
    admits slot 2 and keeps slot 3 hot."""
    keys = lambda *pairs: np.array([_key(*p) for p in pairs], dtype=np.int64)
    store = dict(hot=keys((1, 1), (2, 2), (2, 3)), moved=keys((1, 1), (2, 2)),
                 waiting=keys((2, 3)), cold=keys((1, 5), (1, 7)),
                 injected=10)
    store.update(changes)
    stats = SimpleNamespace(n_injected=store["injected"], n_delivered=3,
                            n_dropped=2)
    engine = SimpleNamespace(quota=1, _hot=store["waiting"],
                             _cold=store["cold"], _stats=stats, _migrated=0)
    return engine, store["hot"], store["moved"]


class TestParkedStore:
    def test_a_sound_store_passes(self):
        SimSanitizer().check_parked_store(*_store())

    @pytest.mark.parametrize("kind, changes", [
        ("parked-order", dict(cold=np.array([_key(1, 7), _key(1, 5)]))),
        ("parked-depth", dict(hot=np.array([_key(2, 2), _key(2, 3)]),
                              moved=np.array([_key(2, 2)]), injected=9)),
        ("parked-tier", dict(hot=np.array([_key(1, 6), _key(2, 2),
                                           _key(2, 3)]),
                             moved=np.array([_key(1, 6), _key(2, 2)]))),
        ("admission-quota", dict(moved=np.array([_key(1, 1), _key(2, 2),
                                                 _key(2, 3)]),
                                 waiting=np.array([], dtype=np.int64))),
        ("row-conservation", dict(injected=11)),
    ])
    def test_each_broken_invariant_raises_its_kind(self, kind, changes):
        with pytest.raises(SanitizerError) as excinfo:
            SimSanitizer().check_parked_store(*_store(**changes))
        assert excinfo.value.report.kind == kind


class TestHeapOrdering:
    def test_clean_run_passes_boundary_checks(self):
        sim = Simulator(sanitize=True)
        for delay in (3.0, 1.0, 2.0):
            sim.schedule_call(delay, _noop)
        assert sim.run() == 3.0

    def test_corrupted_heap_raises(self):
        sim = Simulator(sanitize=True)
        for delay in (1.0, 2.0, 3.0, 4.0, 5.0):
            sim.schedule_call(delay, _noop)
        sim.queue.reverse()  # break the heap property in place
        with pytest.raises(SanitizerError) as excinfo:
            sim.run()
        assert excinfo.value.report.kind == "heap-order"

    def test_entry_before_clock_raises(self):
        sim = Simulator(sanitize=True)
        sim.schedule_call(1.0, _noop)
        sim.now = 5.0  # clock jumped past a pending event
        with pytest.raises(SanitizerError) as excinfo:
            sim.run()
        assert excinfo.value.report.kind == "heap-order"

    def test_unsanitized_sim_still_raises_simulation_error(self):
        sim = Simulator(sanitize=False)
        sim.schedule_call(1.0, _noop)
        sim.now = 5.0
        with pytest.raises(SimulationError):
            sim.run()


class TestEnablement:
    def test_env_variable_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator().sanitizer is not None

    def test_env_zero_and_empty_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert Simulator().sanitizer is None
        monkeypatch.setenv("REPRO_SANITIZE", "")
        assert Simulator().sanitizer is None

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator(sanitize=False).sanitizer is None
        monkeypatch.delenv("REPRO_SANITIZE")
        assert Simulator(sanitize=True).sanitizer is not None

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert Simulator().sanitizer is None


class TestReports:
    def test_error_pickles_with_report(self):
        report = SanitizerReport(kind="credit-leak", detail="one short",
                                 subject="0->1", sim_time=2.5,
                                 events_executed=17)
        err = SanitizerError(report)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.report == report
        assert "credit-leak" in str(clone)

    def test_report_to_dict_round_trips_json(self):
        import json
        report = SanitizerReport(kind="rng-cross-use", detail="d",
                                 subject="s", sim_time=1.0,
                                 events_executed=2)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["kind"] == "rng-cross-use"
        assert data["events_executed"] == 2

    def test_report_str_mentions_time_and_events(self):
        report = SanitizerReport(kind="heap-order", detail="broken",
                                 sim_time=1.25, events_executed=9)
        text = str(report)
        assert "1.25" in text and "9 events" in text
