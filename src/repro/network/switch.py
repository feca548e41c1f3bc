"""The trusted switch: routing, TTL handling, and fault degradation live here.

Per the paper's assumptions (§4.1), switches are separate from compute nodes
and cannot be compromised; they perform "only simple functions such as
addition, subtraction, and XOR" (§6.2). Concretely, for each packet a switch:

1. zeroes/initializes the marking field when the packet enters from its
   local NIC (``on_inject`` — this is what defeats attacker-preloaded MFs);
2. decrements TTL and drops expired packets;
3. asks the routing function for legal next hops and the selection policy
   for one of them;
4. enqueues the packet on the chosen output channel.

The marking scheme's per-hop write (``on_hop``) fires when the packet
*actually starts crossing* the chosen channel (the fabric's transmit hook),
still after the route decision exactly as Figure 4 specifies — but late
enough that a packet parked in an output queue carries no mark for a hop it
has not taken. That is what makes mid-flight link failures survivable: when
a link dies, queued packets are handed back to :meth:`redispatch` and simply
routed again; their marking state is untouched because the aborted hop was
never marked.

This is the per-packet hot loop, so the bookkeeping is deliberately lean:
counters are plain integer slots (materialized into a
:class:`repro.engine.stats.Counter` view only on demand), the profitability
test is one :class:`repro.topology.oracle.DistanceOracle` lookup with the
current node's distance threaded through :class:`repro.routing.base.RouteState`,
and the routing-delay event is scheduled closure-free. The fault hooks
(hop ceiling, packet-fault injection, dead-channel reroute) each cost one
``is None``/attribute test per packet when no campaign is armed.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.engine.stats import Counter
from repro.network.channel import Channel
from repro.network.packet import Packet
from repro.routing.plan import next_hops

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import Fabric

__all__ = ["Switch"]


class Switch:
    """One switch of the direct network, owned by a :class:`Fabric`."""

    __slots__ = ("fabric", "node", "routing_delay", "outputs",
                 "n_injected", "n_received", "n_forwarded", "n_filtered",
                 "_process_buffered_cb")

    def __init__(self, fabric: "Fabric", node: int, routing_delay: float):
        self.fabric = fabric
        self.node = node
        self.routing_delay = routing_delay
        #: next-hop node -> output Channel, wired by the fabric
        self.outputs: Dict[int, Channel] = {}
        # Hot-loop counters as integer slots; see the `counters` property.
        self.n_injected = 0
        self.n_received = 0
        self.n_forwarded = 0
        self.n_filtered = 0
        self._process_buffered_cb = self._process_buffered

    @property
    def counters(self) -> Counter:
        """String-keyed view of the integer slot counters (built on access)."""
        view = Counter()
        for name, value in (("injected", self.n_injected),
                            ("received", self.n_received),
                            ("forwarded", self.n_forwarded),
                            ("filtered", self.n_filtered)):
            if value:
                view.incr(name, value)
        return view

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def accept_from_nic(self, packet: Packet) -> None:
        """A packet entering from the local compute node.

        The marking scheme's ``on_inject`` runs here — the paper's "V is set
        to a zero vector when the packet first enters a switch from a
        computing node" — overwriting whatever the host put in the MF.
        """
        filter_fn = self.fabric.injection_filter
        if filter_fn is not None and not filter_fn(packet, self.node):
            self.n_filtered += 1
            self.fabric.drop(packet, self.node, "filtered_at_source")
            return
        scheme = self.fabric.marking
        if scheme is not None:
            scheme.on_inject(packet, self.node)
        self.n_injected += 1
        self._dispatch(packet)

    def accept_from_channel(self, packet: Packet, channel: Channel) -> None:
        """A packet arriving over channel ``channel`` (input buffer holds it)."""
        self.n_received += 1
        if self.routing_delay > 0:
            self.fabric.sim.schedule_call(
                self.routing_delay, self._process_buffered_cb, packet, channel,
                label="switch-route",
            )
        else:
            self._process_buffered(packet, channel)

    def _process_buffered(self, packet: Packet, channel: Channel) -> None:
        self._dispatch(packet)
        channel.return_credit()

    def redispatch(self, packet: Packet) -> None:
        """Route a packet again after its queued output link failed.

        Called by :meth:`repro.network.fabric.Fabric.fail_link` for packets
        that were parked in a now-dead channel's queue. The packet never
        started crossing, so its marking field holds no mark for the aborted
        hop; it simply takes another trip through the routing function —
        adaptive routers find a detour, deterministic ones come up empty and
        the packet is dropped with a counted reason instead of raising.
        """
        # The threaded distance refers to the abandoned hop's target, not to
        # this switch; force the dispatcher to re-derive it from the oracle.
        packet.route_state.distance_to_go = None
        self.fabric.n_rerouted += 1
        self._dispatch(packet)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _dispatch(self, packet: Packet) -> None:
        fabric = self.fabric
        node = self.node
        dst = packet.destination_node
        if dst == node:
            fabric.deliver_local(packet, node)
            return

        ceiling = fabric.hop_ceiling
        if ceiling is not None and packet.hops >= ceiling:
            fabric.livelocked(packet, node)
            return

        # Inlined IPHeader.decrement_ttl (floor 0, drop at 0): one attribute
        # write instead of a method call on the per-hop path.
        header = packet.header
        ttl = header.ttl
        if ttl > 1:
            header.ttl = ttl - 1
        else:
            if ttl == 1:
                header.ttl = 0
            fabric.drop(packet, node, "ttl_expired")
            return

        state = packet.route_state
        candidates = next_hops(fabric.router, fabric.topology, node, state)
        if not candidates:
            fabric.drop(packet, node, "unroutable")
            return

        next_node = fabric.selection.choose(candidates, node)
        channel = self.outputs[next_node]
        if channel.failed:
            # Defense in depth for links failed behind the router's back
            # (e.g. a campaign that raced a memoized decision): steer to a
            # live alternative or degrade to a counted drop — never raise.
            live = tuple(c for c in candidates
                         if not self.outputs[c].failed)
            if not live:
                fabric.drop(packet, node, "link_failed")
                return
            fabric.n_rerouted += 1
            next_node = live[0] if len(live) == 1 else fabric.select(live, node)
            channel = self.outputs[next_node]

        # Profitability: one oracle lookup for the chosen hop; this node's
        # own distance was threaded through RouteState by the previous hop
        # (None only on the packet's first hop after injection).
        oracle = fabric.oracle
        current_dist = state.distance_to_go
        if current_dist is None:
            current_dist = oracle.distance(node, dst)
        next_dist = oracle.distance(next_node, dst)
        # Inlined RouteState.note_hop(node, next_dist < current_dist, next_dist).
        state.last_node = node
        if next_dist >= current_dist:
            state.misroutes += 1
        state.distance_to_go = next_dist

        # Monitors observe the packet as received — before this switch's own
        # marking write — so a transit monitor's DDPM decode relative to
        # itself yields the true source (V = here - source at this instant).
        # Dict truthiness gate: monitored runs are rare, the common case
        # pays one attribute read instead of a call into an empty registry.
        if fabric._transit_observers:
            fabric.notify_transit(packet, node)

        hook = fabric.fault_hook
        if hook is not None and not hook(packet, node, next_node):
            return  # the fault hook consumed (dropped and counted) it

        self.n_forwarded += 1
        channel.enqueue(packet)
