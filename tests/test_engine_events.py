"""Unit tests for the simulator's event queue, the heap ``Simulator.queue``."""

import heapq

from repro.engine.simulator import Simulator


def _noop():
    """Inert event callback (module-level: schedule_call takes no closures)."""


class TestEventQueue:
    def test_pops_in_time_order(self):
        # Entries are (time, seq, callback, args, label) tuples; popping the
        # heap yields them by time whichever entry point pushed them.
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, fired.append, 3)
        sim.schedule_call(1.0, fired.append, 1)
        sim.schedule_at(2.0, fired.append, 2)
        times = []
        while sim.queue:
            time, _seq, callback, args, _label = heapq.heappop(sim.queue)
            times.append(time)
            callback(*args)
        assert times == [1.0, 2.0, 3.0]
        assert fired == [1, 2, 3]

    def test_insertion_order_breaks_full_ties(self):
        # Both entry points draw from one counter, so equal-time events
        # run in the order they were scheduled, whichever call made them.
        sim = Simulator()
        fired = []
        for i in range(6):
            if i % 2:
                sim.schedule_at(1.0, fired.append, i)
            else:
                sim.schedule_call(1.0, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_clear(self):
        # Simulator.reset drops every pending event.
        sim = Simulator()
        fired = []
        sim.schedule_call(1.0, fired.append, 1)
        sim.reset()
        assert not sim.queue
        assert sim.step() is False
        sim.run()
        assert fired == []

    def test_len_tracks_live_events(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule_call(float(i), _noop)
        assert len(sim.queue) == 4
        sim.step()
        assert len(sim.queue) == 3
        sim.run()
        assert len(sim.queue) == 0
