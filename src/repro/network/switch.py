"""The trusted switch: routing, TTL handling, and fault degradation live here.

Per the paper's assumptions (§4.1), switches are separate from compute nodes
and cannot be compromised; they perform "only simple functions such as
addition, subtraction, and XOR" (§6.2). Concretely, for each packet a switch:

1. zeroes/initializes the marking field when the packet enters from its
   local NIC (``on_inject`` — this is what defeats attacker-preloaded MFs);
2. decrements TTL and drops expired packets;
3. reads the legal next hops — from the route column the fabric holds for
   a table-driven router, from the router itself otherwise — and lets the
   selection policy pick one;
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
the switch keeps no per-packet counters of its own (the fabric and the NICs
count), the route read is
one link-version compare plus two indexes, a plain first-candidate, random
or least-congested policy (the last over the fabric's own congestion view,
each candidate channel's occupancy read off the channel) is applied in
place with no call per hop, a hop's profitability is tested (two
closed-form ``min_hops``) only for a router that can misroute and has no
route table, and the routing-delay event is scheduled closure-free. The
fault hooks (hop ceiling, packet-fault injection, dead-channel reroute)
each cost one ``is None``/attribute test per packet when no campaign is
armed.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.network.channel import Channel
from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import Fabric

__all__ = ["Switch"]


class Switch:
    """One switch of the direct network, owned by a :class:`Fabric`."""

    __slots__ = ("fabric", "node", "routing_delay", "outputs",
                 "_process_buffered_cb")

    def __init__(self, fabric: "Fabric", node: int, routing_delay: float):
        self.fabric = fabric
        self.node = node
        self.routing_delay = routing_delay
        #: next-hop node -> output Channel, wired by the fabric
        self.outputs: Dict[int, Channel] = {}
        self._process_buffered_cb = self._process_buffered

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
            self.fabric.drop(packet, self.node, "filtered_at_source")
            return
        scheme = self.fabric.marking
        if scheme is not None:
            scheme.on_inject(packet, self.node)
        self._dispatch(packet)

    def accept_from_channel(self, packet: Packet, channel: Channel) -> None:
        """A packet arriving over channel ``channel`` (input buffer holds it)."""
        if self.routing_delay > 0:
            self.fabric.sim.schedule_args(
                self.routing_delay, self._process_buffered_cb, (packet, channel),
                "switch-route",
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

        # The fabric holds the route table under the link version it read
        # it at; a bump (a failure through the fabric or straight through
        # the topology) re-reads it here.
        if fabric._routes_version != fabric.topology.links.version:
            fabric._read_routes()
        state = packet.route_state
        routes = fabric._routes
        if routes is None:
            candidates = fabric.router.candidates(fabric.topology, node, state)
        else:
            candidates = routes[dst][node]
        if not candidates:
            fabric.drop(packet, node, "unroutable")
            return

        outputs = self.outputs
        in_place = fabric._in_place
        if in_place is None:
            next_node = fabric._selection.choose(candidates, node)
        elif len(candidates) == 1 or in_place == "first":
            # Each plain policy takes a lone candidate without a draw.
            next_node = candidates[0]
        elif in_place == "random":
            # RandomPolicy.choose without re-checking the candidates.
            next_node = fabric._selection.pick(candidates)
        else:
            # LeastCongestedPolicy.choose over the fabric's own congestion
            # view, with each channel's occupancy read in place: the same
            # first-minimum ties in candidate order, the same tie draw.
            ties = []
            for v in candidates:
                out = outputs[v]
                load = len(out.queue) + out.buffer_capacity - out.credits
                if not ties or load < best:
                    best = load
                    ties = [v]
                elif load == best:
                    ties.append(v)
            next_node = ties[0] if len(ties) == 1 else fabric._selection.pick(ties)
        channel = outputs[next_node]
        if channel.failed:
            # Defense in depth for links failed behind the router's back
            # (e.g. a campaign that raced a memoized decision): steer to a
            # live alternative or degrade to a counted drop — never raise.
            live = tuple(c for c in candidates if not outputs[c].failed)
            if not live:
                fabric.drop(packet, node, "link_failed")
                return
            fabric.n_rerouted += 1
            next_node = live[0] if len(live) == 1 else fabric.selection.choose(live, node)
            channel = outputs[next_node]

        # Inlined RouteState.note_hop, misroutes counted only where one can
        # happen (see RouteState.misroutes). Every router that can misroute
        # runs on a mesh, torus or hypercube: min_hops is closed form.
        state.last_node = node
        if routes is None and fabric.router.allows_misrouting:
            topology = fabric.topology
            if topology.min_hops(next_node, dst) >= topology.min_hops(node, dst):
                state.misroutes += 1

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

        # Channel.enqueue minus its dead-link guard, which the check above
        # already made (the fault hook drops, clones or flips bits; it
        # fails no link).
        channel.queue.append(packet)
        channel.kick()
