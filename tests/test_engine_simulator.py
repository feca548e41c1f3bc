"""Unit tests for the discrete-event simulator kernel."""

import math

import pytest

from repro.engine.simulator import Simulator
from repro.errors import SimulationError


def _noop():
    """Inert event callback (module-level: schedule_call takes no closures)."""


def _record_now(sim, log):
    log.append(sim.now)


def _chain(sim, log, depth):
    log.append(sim.now)
    if depth:
        sim.schedule_call(1.0, _chain, sim, log, depth - 1)


def _loop(sim):
    sim.schedule_call(0.0, _loop, sim)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_relative(self):
        sim = Simulator()
        fired = []
        sim.schedule_call(2.5, _record_now, sim, fired)
        sim.run()
        assert fired == [2.5]

    def test_schedule_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(4.0, _record_now, sim, fired)
        sim.run()
        assert fired == [4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_call(-0.1, _noop)
        with pytest.raises(SimulationError):
            sim.schedule_at(-0.1, _noop)
        assert not sim.queue

    def test_schedule_into_past_rejected(self):
        sim = Simulator()
        sim.schedule_call(5.0, _noop)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, _noop)
        sim.schedule_at(5.0, _noop)  # now itself is not the past
        assert len(sim.queue) == 1

    def test_nan_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_call(math.nan, _noop)
        with pytest.raises(SimulationError):
            sim.schedule_at(math.nan, _noop)
        assert not sim.queue


class TestExecution:
    def test_events_fire_in_order_and_advance_clock(self):
        sim = Simulator()
        times = []
        sim.schedule_at(3.0, _record_now, sim, times)
        sim.schedule_call(1.0, _record_now, sim, times)
        sim.schedule_at(2.0, _record_now, sim, times)
        sim.run()
        assert times == [1.0, 2.0, 3.0]
        assert sim.now == 3.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_call(0.0, _chain, sim, fired, 3)
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_run_until_stops_and_lands_on_end_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_call(1.0, fired.append, 1)
        sim.schedule_call(10.0, fired.append, 10)
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run_until(20.0)
        assert fired == [1, 10]

    def test_max_events_guard(self):
        sim = Simulator(max_events=100)
        sim.schedule_call(0.0, _loop, sim)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule_call(1.0, _noop)
        assert sim.step() is True
        assert sim.step() is False
        assert (sim.now, sim.events_executed) == (1.0, 1)

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_call(float(i), _noop)
        sim.run()
        assert sim.events_executed == 5

    def test_reset(self):
        sim = Simulator(seed=1)
        sim.schedule_call(1.0, _noop)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.events_executed == 0
        assert not sim.queue


class TestRng:
    def test_streams_reproducible_across_instances(self):
        a = Simulator(seed=9).rng.stream("x").integers(0, 1000, size=5)
        b = Simulator(seed=9).rng.stream("x").integers(0, 1000, size=5)
        assert list(a) == list(b)

    def test_streams_independent_by_name(self):
        sim = Simulator(seed=9)
        a = sim.rng.stream("a").integers(0, 10**9)
        b = sim.rng.stream("b").integers(0, 10**9)
        assert a != b
