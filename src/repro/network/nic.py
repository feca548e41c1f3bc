"""Compute-node NIC: the boundary between untrusted hosts and trusted switches.

A NIC injects packets its (possibly compromised) host hands it — including
spoofed source addresses and attacker-chosen marking-field garbage — and
delivers arriving packets to registered handlers (the victim's defense
stack). Per the paper's trust model (§4.1), *nothing* the NIC does is
trusted; all marking integrity comes from the switch on the other side of
the injection port.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, TYPE_CHECKING

from repro.engine.stats import Counter
from repro.errors import ConfigurationError
from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.markstream import DeliveryRing

__all__ = ["Nic", "DeliveredPacket"]


class DeliveredPacket(NamedTuple):
    """What a delivery handler receives."""

    packet: Packet
    node: int
    time: float


DeliveryHandler = Callable[[DeliveredPacket], None]


class Nic:
    """Injection/ejection endpoint of one compute node."""

    __slots__ = ("node", "n_injected", "n_delivered", "_handlers", "sink")

    def __init__(self, node: int):
        self.node = node
        # Hot-loop counters as integer slots; see the `counters` property.
        self.n_injected = 0
        self.n_delivered = 0
        self._handlers: List[DeliveryHandler] = []
        #: optional columnar delivery sink (a
        #: :class:`~repro.network.markstream.DeliveryRing`); when attached,
        #: every delivery is appended there instead of (or in addition to)
        #: the per-packet handlers.
        self.sink: Optional["DeliveryRing"] = None

    @property
    def counters(self) -> Counter:
        """String-keyed view of the integer slot counters (built on access)."""
        view = Counter()
        if self.n_injected:
            view.incr("injected", self.n_injected)
        if self.n_delivered:
            view.incr("delivered", self.n_delivered)
        return view

    def add_delivery_handler(self, handler: DeliveryHandler) -> None:
        """Register a callback fired for every packet delivered to this node."""
        self._handlers.append(handler)

    def attach_sink(self, sink: "DeliveryRing") -> None:
        """Attach the node's columnar delivery sink (exactly one per NIC)."""
        if self.sink is not None:
            raise ConfigurationError(
                f"node {self.node} already has a delivery sink; add a "
                f"consumer to the existing ring instead")
        self.sink = sink

    def deliver(self, packet: Packet, time: float) -> None:
        """Hand a packet that reached this node to the host side.

        Three outcomes, cheapest first: an uninstrumented node neither
        builds a :class:`DeliveredPacket` nor dispatches anything; a sinked
        node appends one columnar row; per-packet handlers get the classic
        event object.
        """
        packet.delivered_at = time
        self.n_delivered += 1
        sink = self.sink
        if sink is not None:
            sink.append(packet, time)
        handlers = self._handlers
        if handlers:
            event = DeliveredPacket(packet, self.node, time)
            for handler in handlers:
                handler(event)

    def note_injected(self) -> None:
        """Count a packet the host pushed into the fabric through this NIC."""
        self.n_injected += 1
