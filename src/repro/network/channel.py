"""Directed channels with credit-based flow control.

Each physical link contributes two directed channels. A channel owns the
sender-side output queue, the serialization state of the sending port, and
the credit count mirroring free buffer slots at the receiving switch input —
a packet starts crossing only when a credit is available, and the credit
returns when the receiver has processed the packet (forwarded or delivered
it). Queue depth plus consumed credits is the congestion metric adaptive
selection policies consult.

A send schedules its arrival and a ``chan-serial`` completion that starts
the next send. The completion is deferred (``Simulator.defer``) and pushed
into its reserved heap slot only once a packet waits for it, so an
uncontended send costs one heap event; ``busy`` reads the completion's key.
:meth:`Channel.kick` is the one transmit routine: the completion runs it,
and so do an enqueue, a returned credit that finds packets waiting, and a
restored link. The fabric's switches append to ``queue`` and kick directly,
having made :meth:`Channel.enqueue`'s dead-link check themselves.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.engine.simulator import Simulator
from repro.errors import BufferOverflowError, ConfigurationError
from repro.network.flowcontrol import ServiceModel
from repro.network.packet import Packet

__all__ = ["Channel"]


class Channel:
    """One directed channel u -> v.

    Parameters
    ----------
    latency:
        Propagation delay (time units).
    bandwidth:
        Bytes per time unit for serialization.
    buffer_capacity:
        Receiver input-buffer slots, i.e. the credit pool.
    on_arrival:
        Callback (packet, channel) invoked when a packet finishes crossing.
    """

    __slots__ = (
        "src", "dst", "latency", "bandwidth", "buffer_capacity", "credits",
        "queue", "sim", "service", "on_arrival", "failed", "on_transmit",
        "on_wire_drop", "_done", "_kick_cb",
        "_arrive_cb", "_hold_by_size",
    )

    def __init__(self, sim: Simulator, service: ServiceModel, src: int, dst: int, *,
                 latency: float, bandwidth: float, buffer_capacity: int,
                 on_arrival: Callable[[Packet, "Channel"], None],
                 on_transmit: Optional[Callable[[Packet, "Channel"], None]] = None,
                 on_wire_drop: Optional[Callable[[Packet, "Channel"], None]] = None):
        if latency < 0:
            raise ConfigurationError(f"latency must be >= 0, got {latency}")
        if bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be > 0, got {bandwidth}")
        if buffer_capacity < 1:
            raise ConfigurationError(f"buffer_capacity must be >= 1, got {buffer_capacity}")
        self.sim = sim
        self.service = service
        self.src = src
        self.dst = dst
        self.latency = latency
        self.bandwidth = bandwidth
        self.buffer_capacity = buffer_capacity
        self.credits = buffer_capacity
        self.queue: Deque[Packet] = deque()
        #: (time, 0, seq) key of the current send's completion event
        self._done: tuple = ()
        self.on_arrival = on_arrival
        #: fired when a packet actually starts crossing (the fabric applies
        #: hop accounting and the per-hop marking write here, so a packet
        #: still parked in the queue carries no mark for an untaken hop and
        #: can be rerouted cleanly when this link fails)
        self.on_transmit = on_transmit
        #: fired when a packet that was on the wire is lost to a link
        #: failure (the fabric records the drop); the reserved receiver
        #: credit is returned by the channel itself
        self.on_wire_drop = on_wire_drop
        self.failed = False
        # Pre-bound callbacks: binding per hop would allocate a fresh bound
        # method for every scheduled event on the hot path.
        self._kick_cb = self.kick
        self._arrive_cb = self._arrive
        # Serialization time depends only on (service, bandwidth, packet
        # size) and all three service models are pure in it, so each size's
        # hold is computed once per channel — the transmit path then pays a
        # dict hit instead of a method call and division per packet.
        self._hold_by_size: dict = {}

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a packet serializes: its completion has not run yet."""
        return self._done > self.sim.frontier

    def occupancy(self) -> int:
        """Congestion metric: queued packets plus in-use receiver buffers."""
        return len(self.queue) + (self.buffer_capacity - self.credits)

    def enqueue(self, packet: Packet) -> None:
        """Accept a packet into the sender-side output queue and try to send."""
        if self.failed:
            raise BufferOverflowError(
                f"channel {self.src}->{self.dst} is failed; switch routed onto a dead link"
            )
        self.queue.append(packet)
        self.kick()

    def return_credit(self) -> None:
        """Receiver finished with one buffered packet; a new send may start."""
        if self.credits >= self.buffer_capacity:
            raise BufferOverflowError(
                f"credit overflow on channel {self.src}->{self.dst}"
            )
        self.credits += 1
        if self.queue:
            self.kick()

    def kick(self) -> None:
        """Start a send if idle, credited, live and queue-nonempty.

        The one transmit routine: a send's deferred completion runs it, and
        so does every state change that can unblock one — an enqueue, a
        returned credit, :meth:`repro.network.fabric.Fabric.restore_link`
        bringing the channel back up.
        """
        queue = self.queue
        if not queue or self.failed:
            return
        sim = self.sim
        if self._done > sim.frontier:
            sim.commit(self)  # still serializing; the completion has work now
            return
        if self.credits == 0:
            return
        packet = queue.popleft()
        self.credits -= 1
        if self.on_transmit is not None:
            self.on_transmit(packet, self)
        size = packet.header.total_length
        hold = self._hold_by_size.get(size)
        if hold is None:
            hold = self.service.serialization_time(packet, self.bandwidth)
            self._hold_by_size[size] = hold
        self._done = sim.defer(self, sim.now + hold, self._kick_cb,
                               "chan-serial")
        if queue:
            sim.commit(self)  # packets wait: the completion starts the next send
        sim.schedule_args(hold + self.latency, self._arrive_cb, (packet,),
                          "chan-arrive")

    def _arrive(self, packet: Packet) -> None:
        if self.failed:
            # The cable was pulled while this packet was on the wire: the
            # packet is lost, but the receiver-buffer slot it reserved must
            # be released or the restored link would run with permanently
            # reduced credit (see the credit-conservation regression tests).
            self.return_credit()
            if self.on_wire_drop is not None:
                self.on_wire_drop(packet, self)
            return
        self.on_arrival(packet, self)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Channel({self.src}->{self.dst}, q={len(self.queue)}, "
                f"credits={self.credits}/{self.buffer_capacity})")
