"""Unit tests for channels and credit flow control."""

import pytest

from repro.engine.simulator import Simulator
from repro.errors import BufferOverflowError, ConfigurationError
from repro.network.channel import Channel
from repro.network.flowcontrol import StoreAndForward
from repro.network.ip import IPHeader
from repro.network.packet import Packet


def make_packet(payload=80):
    return Packet(IPHeader(1, 2, total_length=20 + payload), 0, 1)


def _noop():
    """Inert event callback (module-level: schedule_call takes no closures)."""


def _enqueue_at_t_s(sim, chan, log, packet):
    log.append(("event", sim.now, chan.busy))
    chan.enqueue(packet)
    log.append(("event-done", sim.now))


def _restore_and_send(chan, packet):
    chan.failed = False
    chan.enqueue(packet)
    chan.kick()


def make_channel(sim, arrivals, *, latency=1.0, bandwidth=100.0, capacity=2):
    return Channel(sim, StoreAndForward(), 0, 1, latency=latency,
                   bandwidth=bandwidth, buffer_capacity=capacity,
                   on_arrival=lambda p, c: arrivals.append((sim.now, p)))


class TestTiming:
    def test_arrival_after_serialization_plus_latency(self):
        sim = Simulator()
        arrivals = []
        chan = make_channel(sim, arrivals)
        chan.enqueue(make_packet(80))  # 100 bytes @ 100 B/t = 1.0, + 1.0 latency
        sim.run()
        assert arrivals[0][0] == pytest.approx(2.0)

    def test_serialization_serializes(self):
        # Two packets: second starts only after the first's hold time.
        sim = Simulator()
        arrivals = []
        chan = make_channel(sim, arrivals, capacity=4)
        chan.enqueue(make_packet(80))
        chan.enqueue(make_packet(80))
        sim.run()
        times = [t for t, _ in arrivals]
        assert times == [pytest.approx(2.0), pytest.approx(3.0)]

    def test_packets_keep_fifo_order(self):
        sim = Simulator()
        arrivals = []
        chan = make_channel(sim, arrivals, capacity=4)
        packets = [make_packet() for _ in range(3)]
        for p in packets:
            chan.enqueue(p)
        sim.run()
        assert [p.packet_id for _, p in arrivals] == [p.packet_id for p in packets]


class TestCredits:
    def test_transmission_stalls_without_credit(self):
        sim = Simulator()
        arrivals = []
        chan = make_channel(sim, arrivals, capacity=1)
        chan.enqueue(make_packet())
        chan.enqueue(make_packet())
        sim.run()
        # Only the first crossed; the second waits for a credit return.
        assert len(arrivals) == 1
        assert len(chan.queue) == 1
        chan.return_credit()
        sim.run()
        assert len(arrivals) == 2

    def test_credit_overflow_guarded(self):
        sim = Simulator()
        chan = make_channel(sim, [], capacity=1)
        with pytest.raises(BufferOverflowError):
            chan.return_credit()

    def test_occupancy_counts_queue_and_inflight(self):
        sim = Simulator()
        chan = make_channel(sim, [], capacity=1)
        assert chan.occupancy() == 0
        chan.enqueue(make_packet())  # consumes the credit immediately
        chan.enqueue(make_packet())  # waits in queue
        assert chan.occupancy() == 2


class TestFailure:
    def test_enqueue_on_failed_channel_rejected(self):
        sim = Simulator()
        chan = make_channel(sim, [])
        chan.failed = True
        with pytest.raises(BufferOverflowError):
            chan.enqueue(make_packet())


class TestValidation:
    def test_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Channel(sim, StoreAndForward(), 0, 1, latency=-1, bandwidth=1,
                    buffer_capacity=1, on_arrival=lambda p, c: None)
        with pytest.raises(ConfigurationError):
            Channel(sim, StoreAndForward(), 0, 1, latency=0, bandwidth=0,
                    buffer_capacity=1, on_arrival=lambda p, c: None)
        with pytest.raises(ConfigurationError):
            Channel(sim, StoreAndForward(), 0, 1, latency=0, bandwidth=1,
                    buffer_capacity=0, on_arrival=lambda p, c: None)


class TestCompletionTieBreaks:
    """An uncontended send's completion runs in place, in its (time, seq) slot.

    Each case ties events at a send's completion time ``t_s`` exactly (a
    100-byte packet at 100 B/t holds the wire for 1.0) and asserts the
    transmit times and order, and the event counts, that a completion
    pushed onto the heap at every send produces.
    """

    def _setup(self, *, latency=1.0, capacity=2):
        sim = Simulator()
        log = []
        chan = Channel(sim, StoreAndForward(), 0, 1, latency=latency,
                       bandwidth=100.0, buffer_capacity=capacity,
                       on_arrival=lambda p, c: log.append(("rx", sim.now, p)),
                       on_transmit=lambda p, c: log.append(("tx", sim.now, p)),
                       on_wire_drop=lambda p, c: log.append(("lost", sim.now, p)))
        return sim, chan, log

    def _enqueue_at_completion(self, *, before):
        sim, chan, log = self._setup()
        a, b = make_packet(), make_packet()
        if before:  # drawn before the send's completion: ordered first
            sim.schedule_call(1.0, _enqueue_at_t_s, sim, chan, log, b)
        chan.enqueue(a)
        if not before:
            sim.schedule_call(1.0, _enqueue_at_t_s, sim, chan, log, b)
        sim.run()
        return sim, log, a, b

    def test_enqueue_at_t_s_ordered_before_the_completion(self):
        sim, log, a, b = self._enqueue_at_completion(before=True)
        # The wire is still busy: b waits for the completion, which now
        # runs as a heap event right after this one.
        assert log == [("tx", 0.0, a), ("event", 1.0, True), ("event-done", 1.0),
                       ("tx", 1.0, b), ("rx", 2.0, a), ("rx", 3.0, b)]
        # event, a's completion, a's arrival, b's completion, b's arrival
        assert sim.events_executed == 5
        assert sim.heap_events == 4

    def test_enqueue_at_t_s_ordered_after_the_completion(self):
        sim, log, a, b = self._enqueue_at_completion(before=False)
        # The completion already ran: b starts inside the enqueue.
        assert log == [("tx", 0.0, a), ("event", 1.0, False), ("tx", 1.0, b),
                       ("event-done", 1.0), ("rx", 2.0, a), ("rx", 3.0, b)]
        assert sim.events_executed == 5
        assert sim.heap_events == 3

    def test_kick_between_runs_at_t_s(self):
        sim, chan, log = self._setup(capacity=3)
        a, b, c = make_packet(), make_packet(), make_packet()
        chan.enqueue(a)
        sim.run_until(0.5)
        assert (chan.busy, sim.events_executed) == (True, 0)
        sim.run_until(1.0)
        # Every event at or before now has run, a's completion included (the
        # boundary at 0.5 pushed it onto the heap, still ahead then).
        assert (chan.busy, sim.events_executed, sim.heap_events) == (False, 1, 1)
        chan.queue.append(b)  # queued behind the channel's back
        chan.kick()
        assert log == [("tx", 0.0, a), ("tx", 1.0, b)]
        # Kicked mid-send, c waits for b's completion at 2.0.
        sim.run_until(1.5)
        chan.queue.append(c)
        chan.kick()
        sim.run_until(2.0)
        assert (sim.events_executed, sim.heap_events) == (3, 3)
        sim.run()
        assert log == [("tx", 0.0, a), ("tx", 1.0, b), ("rx", 2.0, a),
                       ("tx", 2.0, c), ("rx", 3.0, b), ("rx", 4.0, c)]
        # Each boundary pushed the completion still ahead of it.
        assert (sim.events_executed, sim.heap_events) == (6, 6)

    def test_link_fails_mid_serialization_then_restored(self):
        sim, chan, log = self._setup()
        a, b = make_packet(), make_packet()
        chan.enqueue(a)
        sim.schedule_call(0.5, setattr, chan, "failed", True)
        sim.schedule_call(2.5, _restore_and_send, chan, b)
        sim.run_until(2.0)
        # a was on the wire when the link died: lost at its arrival, and its
        # receiver credit came back with it.
        assert log == [("tx", 0.0, a), ("lost", 2.0, a)]
        assert chan.credits == chan.buffer_capacity
        assert (chan.busy, sim.events_executed) == (False, 3)
        sim.run()
        assert log[2:] == [("tx", 2.5, b), ("rx", 4.5, b)]
        # fail, a's completion, a's loss, restore, b's completion, b's arrival
        assert (sim.events_executed, sim.heap_events) == (6, 4)

    def test_zero_latency_arrival_ties_with_the_completion(self):
        sim, chan, log = self._setup(latency=0.0)
        a, b = make_packet(), make_packet()
        chan.on_arrival = lambda p, c: (log.append(("rx", sim.now, p)),
                                        p is a and chan.enqueue(b))
        chan.enqueue(a)
        sim.run()
        # a's arrival at 1.0 is ordered after its completion, so the wire
        # is free and b starts at once.
        assert log == [("tx", 0.0, a), ("rx", 1.0, a), ("tx", 1.0, b), ("rx", 2.0, b)]
        assert (sim.events_executed, sim.heap_events) == (4, 2)

    def test_step_exposes_the_executing_key(self):
        sim, chan, _ = self._setup()
        sim.schedule_call(1.0, _noop)  # ordered before a's completion
        chan.enqueue(make_packet())
        sim.schedule_call(1.0, _noop)  # ordered after it
        sim.step()
        assert (sim.now, chan.busy) == (1.0, True)
        sim.step()
        assert (sim.now, chan.busy) == (1.0, False)

    def test_step_runs_a_pushed_completion_back_to_back(self):
        sim, chan, log = self._setup()
        a, b = make_packet(), make_packet()
        chan.enqueue(a)
        chan.enqueue(b)  # waits: a's completion goes onto the heap
        while sim.step():
            pass
        assert log == [("tx", 0.0, a), ("tx", 1.0, b), ("rx", 2.0, a), ("rx", 3.0, b)]
        assert not chan.busy
        # a's completion, a's arrival, b's arrival off the heap; b's
        # completion ran in place at 2.0
        assert (sim.events_executed, sim.heap_events) == (4, 3)
