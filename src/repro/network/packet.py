"""Packets: an IP header plus simulator-side metadata.

``true_source`` records ground truth (which node really injected the packet)
so identification schemes can be scored; nothing in the forwarding or
marking path is allowed to read it — tests enforce that identification works
from the header alone.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.network.ip import IPHeader
from repro.routing.base import RouteState

__all__ = ["Packet", "PacketKind", "allocate_packet_ids"]

_packet_ids = itertools.count()


def allocate_packet_ids(count: int) -> int:
    """Reserve ``count`` consecutive packet ids; returns the first.

    Bulk twin of the per-packet ``next(_packet_ids)`` draw, for columnar
    injection paths that never build :class:`Packet` objects. The block is
    carved from the same global counter, so bulk-allocated and per-packet
    ids never collide.
    """
    global _packet_ids
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    start = next(_packet_ids)
    _packet_ids = itertools.count(start + count)
    return start


class PacketKind(Enum):
    """Traffic type, used by workloads and detectors (not by forwarding)."""

    DATA = "data"
    SYN = "syn"
    SYN_ACK = "syn_ack"
    ACK = "ack"
    WORM = "worm"
    REQUEST = "request"
    REPLY = "reply"


class Packet:
    """A simulated packet.

    Attributes
    ----------
    header:
        The mutable :class:`IPHeader`; marking schemes write its
        ``identification`` field.
    true_source:
        Ground-truth injecting node (scoring only — never consulted by
        forwarding, marking, or identification).
    destination_node:
        Node index the fabric routes toward (the switches' index view of
        ``header.dst``).
    route_state:
        Per-packet :class:`RouteState` threaded through the routers.
    kind / flow_id / seq:
        Workload bookkeeping.
    injected_at / delivered_at:
        Simulated timestamps set by the fabric.
    hops:
        Switch-to-switch hops taken so far.
    trace:
        Node path, recorded only when the fabric's tracing is enabled.
    """

    __slots__ = (
        "packet_id", "header", "true_source", "destination_node", "route_state",
        "kind", "flow_id", "seq", "injected_at", "delivered_at", "hops",
        "trace", "payload",
    )

    def __init__(self, header: IPHeader, true_source: int, destination_node: int,
                 *, kind: PacketKind = PacketKind.DATA, flow_id: int = 0,
                 seq: int = 0, misroute_budget: int = 0,
                 payload: Optional[object] = None):
        self.packet_id = next(_packet_ids)
        self.header = header
        self.true_source = true_source
        self.destination_node = destination_node
        self.route_state = RouteState(destination_node, misroute_budget=misroute_budget)
        self.kind = kind
        self.flow_id = flow_id
        self.seq = seq
        self.injected_at: Optional[float] = None
        self.delivered_at: Optional[float] = None
        self.hops = 0
        self.trace: Optional[List[int]] = None
        self.payload = payload

    @property
    def size_bytes(self) -> int:
        """Wire size (header.total_length)."""
        return self.header.total_length

    @property
    def latency(self) -> Optional[float]:
        """Injection-to-delivery latency, when delivered."""
        if self.injected_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.injected_at

    def clone(self) -> "Packet":
        """Mid-flight copy with its own id, header, and route state.

        Used by duplication faults: the copy continues from the same point
        in the network with the same accumulated marking field, TTL, hop
        count, and routing state, but is otherwise an independent packet
        (its own id, so ground-truth bookkeeping never confuses the two).
        """
        twin = Packet(
            self.header.copy(), self.true_source, self.destination_node,
            kind=self.kind, flow_id=self.flow_id, seq=self.seq,
            misroute_budget=self.route_state.misroute_budget,
            payload=self.payload,
        )
        state, twin_state = self.route_state, twin.route_state
        twin_state.last_node = state.last_node
        twin_state.misroutes = state.misroutes
        twin_state.distance_to_go = state.distance_to_go
        twin_state.scratch = dict(state.scratch)
        twin.injected_at = self.injected_at
        twin.hops = self.hops
        twin.trace = None if self.trace is None else list(self.trace)
        return twin

    def start_trace(self, at_node: int) -> None:
        """Begin recording the node path."""
        self.trace = [at_node]

    def record_hop(self, to_node: int) -> None:
        """Append a hop to the trace when tracing is on."""
        if self.trace is not None:
            self.trace.append(to_node)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Packet(#{self.packet_id} {self.kind.value} "
                f"true_src={self.true_source} dst={self.destination_node} "
                f"hops={self.hops})")
