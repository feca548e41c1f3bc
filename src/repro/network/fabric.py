"""The fabric: one shell every engine shares, plus the exact backend.

:class:`FabricShell` holds what all three engines read: wiring (topology,
validated router, config, simulator, service, selection, addresses,
marking scheme), one :class:`Nic` per node, the global statistics, the
columnar delivery sinks, packet construction and the fault/filter hook
attributes. It builds no switch or channel, and its per-packet surfaces
(handlers, transit observers, the congestion view) refuse with one
``ConfigurationError`` naming ``engine='exact'``. The cohort backends in
:mod:`repro.network.colqueue` subclass it directly.

:class:`Fabric`, the exact backend, adds one :class:`Switch` per node and
two directed :class:`Channel` objects per live link, wires the marking
scheme into the switch pipeline, and runs packets as discrete events.

Link failures are honored at construction; for mid-run failures call
:meth:`fail_link`, which marks both directed channels dead and degrades
gracefully: queued packets are handed back to their sender switch and routed
again (adaptive routers detour, deterministic ones drop with a counted
reason), while a packet already on the wire is lost — its receiver credit is
returned so a later :meth:`restore_link` resumes at full capacity. Per-hop
marking happens at channel-transmit time, so rerouted packets never carry a
mark for the aborted hop. Fault campaigns (:mod:`repro.faults`) drive these
entry points plus the ``fault_hook`` / ``_inject_gate`` attributes; all of
it costs one ``is None`` test per packet when nothing is armed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.simulator import Simulator
from repro.engine.stats import Counter, Histogram, WelfordAccumulator
from repro.errors import ConfigurationError
from repro.network.addressing import AddressMap
from repro.network.channel import Channel
from repro.network.flowcontrol import ServiceModel, VirtualCutThrough
from repro.network.ip import IPHeader, DEFAULT_TTL
from repro.network.markstream import BatchConsumer, DeliveryRing
from repro.network.nic import DeliveredPacket, Nic
from repro.network.packet import Packet, PacketKind, PacketPool
from repro.network.switch import Switch
from repro.routing.base import Router
from repro.routing.selection import FirstCandidatePolicy, SelectionPolicy
from repro.topology.base import Topology

__all__ = ["Fabric", "FabricConfig", "FabricShell"]

_PER_PACKET_MSG = (
    "per-packet {api} is not available on the batched and sharded engines: "
    "cohorts carry no packet objects. Attach a columnar delivery sink "
    "(attach_delivery_sink) or run with engine='exact'"
)


@dataclass
class FabricConfig:
    """Physical and policy parameters of the fabric.

    Attributes
    ----------
    link_latency:
        Per-hop propagation delay.
    link_bandwidth:
        Channel bandwidth in bytes per time unit.
    buffer_capacity:
        Input-buffer slots (credits) per directed channel.
    routing_delay:
        Switch pipeline delay between packet arrival and forwarding.
    default_ttl:
        Initial TTL given to injected packets.
    misroute_budget:
        Per-packet misroute allowance handed to adaptive routers.
    trace_packets:
        Record full node paths on every packet (memory-heavy; for tests
        and walkthrough benchmarks).
    """

    link_latency: float = 0.05
    link_bandwidth: float = 1000.0
    buffer_capacity: int = 4
    routing_delay: float = 0.01
    default_ttl: int = DEFAULT_TTL
    misroute_budget: int = 8
    trace_packets: bool = False

    def __post_init__(self):
        if self.link_latency < 0:
            raise ConfigurationError(f"link_latency must be >= 0, got {self.link_latency}")
        if self.link_bandwidth <= 0:
            raise ConfigurationError(f"link_bandwidth must be > 0, got {self.link_bandwidth}")
        if self.buffer_capacity < 1:
            raise ConfigurationError(f"buffer_capacity must be >= 1, got {self.buffer_capacity}")
        if self.routing_delay < 0:
            raise ConfigurationError(f"routing_delay must be >= 0, got {self.routing_delay}")
        if not 1 <= self.default_ttl <= 255:
            raise ConfigurationError(f"default_ttl must be in 1..255, got {self.default_ttl}")
        if self.misroute_budget < 0:
            raise ConfigurationError(f"misroute_budget must be >= 0, got {self.misroute_budget}")


class FabricShell:
    """What every engine shares: wiring, NICs, statistics and sinks.

    The backends add the packet lifecycle (``inject``, ``run``,
    ``run_until``, ``fail_link``, ``restore_link``). The shell itself
    carries no packet objects, so its per-packet observation surfaces
    refuse; :class:`Fabric` overrides them.
    """

    #: packet freelist; only the exact backend takes one (cohorts hold no
    #: packet shells to recycle).
    pool: Optional[PacketPool] = None

    def __init__(self, topology: Topology, router: Router, *,
                 selection: Optional[SelectionPolicy] = None,
                 marking=None,
                 config: Optional[FabricConfig] = None,
                 service: Optional[ServiceModel] = None,
                 sim: Optional[Simulator] = None,
                 address_map: Optional[AddressMap] = None):
        self.topology = topology
        self.router = router
        router.validate(topology)
        self.config = config if config is not None else FabricConfig()
        self.sim = sim if sim is not None else Simulator()
        self.service = service if service is not None else VirtualCutThrough()
        self.selection = selection if selection is not None else FirstCandidatePolicy()
        self.addresses = address_map if address_map is not None else AddressMap(topology.num_nodes)
        self.marking = marking
        if marking is not None:
            marking.attach(topology)
        self.nics: List[Nic] = [Nic(node) for node in topology.nodes()]

        # Global statistics. The three per-packet counters are integer slots
        # (see the `counters` property for the string-keyed view); only the
        # rare drop path keeps a per-reason dict.
        self.n_injected = 0
        self.n_delivered = 0
        self.n_dropped = 0
        self.n_rerouted = 0
        self._drop_reasons: Dict[str, int] = {}
        self.latency = WelfordAccumulator()
        self.hop_histogram = Histogram()
        #: columnar delivery sinks attached via :meth:`attach_delivery_sink`;
        #: flushed at every run boundary so batch consumers observe complete
        #: streams without polling.
        self._delivery_sinks: List[DeliveryRing] = []

        #: optional (packet, node) -> bool hook checked by the source switch;
        #: False drops the packet with reason "filtered_at_source". This is
        #: where ingress filtering and identified-source blocking plug in.
        self.injection_filter: Optional[Callable[[Packet, int], bool]] = None
        # Fault-campaign attachment points (see repro.faults.FaultInjector).
        #: optional (packet, from_node, next_node) -> bool hook fired right
        #: before a switch enqueues a packet; returning False means the hook
        #: consumed the packet (dropped and counted it). Packet-level faults
        #: — drops, duplication, marking-field bit-flips — live here.
        self.fault_hook: Optional[Callable[[Packet, int, int], bool]] = None
        #: optional (packet, node) -> bool gate applied after injection
        #: accounting; False drops with reason "nic_stalled" (so the
        #: injected == delivered + dropped invariant still holds).
        self._inject_gate: Optional[Callable[[Packet, int], bool]] = None
        #: hop-count ceiling enforced on every hop; mirrored from the
        #: simulator's watchdog so livelocked packets are caught in the
        #: forwarding loop itself.
        watchdog = self.sim.watchdog
        self.hop_ceiling: Optional[int] = (
            None if watchdog is None else watchdog.hop_ceiling)

    @property
    def counters(self) -> Counter:
        """String-keyed view of the hot-loop counters (materialized on access).

        Mutating the returned Counter does not write back; the live values
        are the integer attributes ``n_injected``/``n_delivered``/``n_dropped``.
        """
        view = Counter()
        if self.n_injected:
            view.incr("injected", self.n_injected)
        if self.n_delivered:
            view.incr("delivered", self.n_delivered)
        if self.n_dropped:
            view.incr("dropped", self.n_dropped)
        if self.n_rerouted:
            view.incr("rerouted", self.n_rerouted)
        for reason, count in self._drop_reasons.items():
            view.incr(f"dropped_{reason}", count)
        return view

    def make_packet(self, src_node: int, dst_node: int, *,
                    spoofed_src_ip: Optional[int] = None,
                    kind: PacketKind = PacketKind.DATA,
                    flow_id: int = 0, seq: int = 0,
                    payload_bytes: int = 64) -> Packet:
        """Build a packet as the host at ``src_node`` would.

        ``spoofed_src_ip`` overrides the legitimate source address — the
        attack primitive the whole paper is about.
        """
        if not self.topology.contains(src_node) or not self.topology.contains(dst_node):
            raise ConfigurationError(
                f"nodes ({src_node}, {dst_node}) outside topology of "
                f"{self.topology.num_nodes} nodes"
            )
        src_ip = spoofed_src_ip if spoofed_src_ip is not None else self.addresses.ip_of(src_node)
        header = IPHeader(
            src_ip, self.addresses.ip_of(dst_node),
            ttl=self.config.default_ttl,
            total_length=IPHeader.HEADER_BYTES + payload_bytes,
        )
        pool = self.pool
        if pool is not None:
            return pool.acquire(header, src_node, dst_node, kind=kind,
                                flow_id=flow_id, seq=seq,
                                misroute_budget=self.config.misroute_budget)
        return Packet(header, src_node, dst_node, kind=kind, flow_id=flow_id,
                      seq=seq, misroute_budget=self.config.misroute_budget)

    def attach_delivery_sink(self, node: int,
                             consumer: Optional[BatchConsumer] = None, *,
                             capacity: int = 1024) -> DeliveryRing:
        """Attach the columnar delivery sink at ``node`` (one ring per node).

        Deliveries at the node are appended to the returned
        :class:`~repro.network.markstream.DeliveryRing` instead of firing a
        Python callback each; the ring flushes to its consumers when full
        and at every run boundary. This — together with the explicit flush
        in result accessors — is the sanctioned batch-flush surface the
        H2 lint rule points per-packet registrations toward.
        """
        ring = DeliveryRing(node, capacity, pool=self.pool,
                            profiler=self.sim.profile)
        self.nics[node].attach_sink(ring)
        self._delivery_sinks.append(ring)
        if consumer is not None:
            ring.add_consumer(consumer)
        return ring

    def flush_delivery_sinks(self) -> int:
        """Flush every attached ring; returns total rows handed out."""
        total = 0
        for ring in self._delivery_sinks:
            total += ring.flush()
        return total

    def stats_summary(self) -> Dict[str, float]:
        """Flat dict of headline statistics for result records.

        This is where the integer slot counters are materialized into their
        string-keyed form — never on the per-packet path.
        """
        out: Dict[str, float] = dict(self.counters.as_dict())
        out["mean_latency"] = self.latency.mean
        out["max_latency"] = self.latency.max if self.latency.count else float("nan")
        out["mean_hops"] = self.hop_histogram.mean()
        return out

    # ------------------------------------------------------------------
    # Per-packet surfaces: only the exact backend has packets to observe
    # ------------------------------------------------------------------
    def add_delivery_handler(self, node: int,
                             handler: Callable[[DeliveredPacket], None]) -> None:
        """Subscribe to deliveries at ``node`` (exact engine only)."""
        raise ConfigurationError(_PER_PACKET_MSG.format(api="delivery handlers"))

    def add_drop_handler(self, handler: Callable[[Packet, int, str], None]) -> None:
        """Observe every drop (exact engine only)."""
        raise ConfigurationError(_PER_PACKET_MSG.format(api="drop handlers"))

    def add_transit_observer(self, node: int,
                             observer: Callable[[Packet, int, float], None]) -> None:
        """Observe packets the switch at ``node`` forwards (exact engine only)."""
        raise ConfigurationError(_PER_PACKET_MSG.format(api="transit observers"))

    def congestion(self, u: int, v: int) -> float:
        """Occupancy of directed channel u -> v (exact engine only)."""
        raise ConfigurationError(_PER_PACKET_MSG.format(api="congestion view"))


class Fabric(FabricShell):
    """The exact backend: a running cluster interconnect, packet by packet."""

    def __init__(self, topology: Topology, router: Router, *,
                 pool: Optional[PacketPool] = None, **shell_kwargs):
        super().__init__(topology, router, **shell_kwargs)
        #: optional packet freelist; when set, :meth:`make_packet` acquires
        #: shells from it and the retirement paths (unobserved deliveries,
        #: ring flushes, drops — including wire drops) release them back.
        self.pool = pool
        if pool is not None:
            for nic in self.nics:
                nic.pool = pool
            if self.sim.sanitizer is not None:
                # Sanitized runs audit freelist transfers for double-release.
                pool.sanitizer = self.sim.sanitizer

        #: shared memoized distance lookup (== topology.min_hops, but O(1));
        #: the switches' per-hop profitability test goes through this.
        self.oracle = topology.distance_oracle()
        #: True when the service model charges a VirtualCutThrough injection
        #: overhead — hoisted out of the per-packet inject path.
        self._vct_injection = isinstance(self.service, VirtualCutThrough)

        cfg = self.config
        self.switches: List[Switch] = [Switch(self, node, cfg.routing_delay)
                                       for node in topology.nodes()]
        self.channels: Dict[Tuple[int, int], Channel] = {}
        for u, v in topology.to_edge_list(include_failed=True):
            for a, b in ((u, v), (v, u)):
                channel = Channel(
                    self.sim, self.service, a, b,
                    latency=cfg.link_latency,
                    bandwidth=cfg.link_bandwidth,
                    buffer_capacity=cfg.buffer_capacity,
                    on_arrival=self._on_channel_arrival,
                    on_transmit=self._on_channel_transmit,
                    on_wire_drop=self._on_wire_drop,
                )
                channel.failed = not topology.links.is_up(a, b)
                self.channels[(a, b)] = channel
                self.switches[a].outputs[b] = channel

        self.dropped_packets: List[Tuple[Packet, int, str]] = []
        self._drop_handlers: List[Callable[[Packet, int, str], None]] = []
        #: per-switch transit observers: node -> [fn(packet, node, time)].
        #: Fired when a switch FORWARDS a packet (not on delivery) — the
        #: instrumentation point for §6.1's trusted-monitor-switch idea.
        self._transit_observers: Dict[int, List[Callable[[Packet, int, float], None]]] = {}
        if self.sim.watchdog is not None:
            self.sim.watchdog.attach_deadlock_probe(self.pending_work)

    def _on_channel_arrival(self, packet: Packet, channel: Channel) -> None:
        self.switches[channel.dst].accept_from_channel(packet, channel)

    def _on_channel_transmit(self, packet: Packet, channel: Channel) -> None:
        # The hop becomes real the moment the packet starts crossing: hop
        # accounting, tracing, and the per-hop marking write all happen here
        # rather than at route-decision time, so a packet still parked in a
        # queue carries no state for a hop it may yet be rerouted away from.
        scheme = self.marking
        if scheme is not None:
            scheme.on_hop(packet, channel.src, channel.dst)
        packet.hops += 1
        if packet.trace is not None:
            packet.trace.append(channel.dst)

    def _on_wire_drop(self, packet: Packet, channel: Channel) -> None:
        # The packet was crossing when the link failed; the channel already
        # returned the reserved receiver credit.
        self.drop(packet, channel.src, "link_failed")

    # ------------------------------------------------------------------
    # Congestion view for adaptive selection
    # ------------------------------------------------------------------
    def congestion(self, u: int, v: int) -> float:
        """Occupancy of directed channel u -> v (selection-policy input).

        Inlines :meth:`Channel.occupancy` — adaptive selection queries this
        once per candidate per routed packet. Resolved through the switch's
        int-keyed output map rather than the (u, v)-keyed channel table: two
        int dict hits beat building and hashing a tuple per query.
        """
        channel = self.switches[u].outputs[v]
        return float(len(channel.queue) + channel.buffer_capacity - channel.credits)

    def select(self, candidates: Sequence[int], current: int) -> int:
        """Apply the configured selection policy."""
        return self.selection.choose(candidates, current)

    # ------------------------------------------------------------------
    # Packet lifecycle
    # ------------------------------------------------------------------
    def inject(self, packet: Packet, at_node: Optional[int] = None,
               delay: float = 0.0) -> None:
        """Schedule ``packet`` to enter the fabric at its true source node."""
        node = at_node if at_node is not None else packet.true_source
        if not self.topology.contains(node):
            raise ConfigurationError(f"injection node {node} outside topology")
        self.sim.schedule_call(delay, self._do_inject, packet, node, label="inject")

    def _do_inject(self, packet: Packet, node: int) -> None:
        packet.injected_at = self.sim.now
        if self.config.trace_packets:
            packet.start_trace(node)
        self.nics[node].note_injected()
        self.n_injected += 1
        gate = self._inject_gate
        if gate is not None and not gate(packet, node):
            # NIC-stall fault: count first, then drop, so the conservation
            # invariant (injected == delivered + dropped) keeps holding.
            self.drop(packet, node, "nic_stalled")
            return
        extra = 0.0
        if self._vct_injection:
            extra = self.service.injection_overhead(packet, self.config.link_bandwidth)
        if extra > 0:
            self.sim.schedule_call(extra, self.switches[node].accept_from_nic,
                                   packet, label="nic-inject")
        else:
            self.switches[node].accept_from_nic(packet)

    def deliver_local(self, packet: Packet, node: int) -> None:
        """A packet reached its destination switch; hand it to the NIC."""
        self.n_delivered += 1
        self.hop_histogram.add(packet.hops)
        self.nics[node].deliver(packet, self.sim.now)
        latency = packet.latency
        if latency is not None:
            self.latency.add(latency)

    def drop(self, packet: Packet, at_node: int, reason: str) -> None:
        """Discard a packet, recording the reason.

        Without a pool the packet itself is retained in ``dropped_packets``
        for inspection; with one, the per-reason counters keep the full
        story and the shell goes back to the freelist (this is the
        pool-aware ejection path — wire drops on failed links arrive here
        through :meth:`_on_wire_drop` too).
        """
        self.n_dropped += 1
        self._drop_reasons[reason] = self._drop_reasons.get(reason, 0) + 1
        for handler in self._drop_handlers:
            handler(packet, at_node, reason)
        pool = self.pool
        if pool is None:
            self.dropped_packets.append((packet, at_node, reason))
        else:
            pool.release(packet)

    def add_drop_handler(self, handler: Callable[[Packet, int, str], None]) -> None:
        self._drop_handlers.append(handler)

    def add_delivery_handler(self, node: int, handler: Callable[[DeliveredPacket], None]) -> None:
        # The definition point of the per-packet API itself — callers in
        # network/ hot paths are what H2 polices, not this delegation.
        self.nics[node].add_delivery_handler(handler)

    def add_transit_observer(self, node: int,
                             observer: Callable[[Packet, int, float], None]) -> None:
        self._transit_observers.setdefault(node, []).append(observer)

    def notify_transit(self, packet: Packet, node: int) -> None:
        """Called by a switch right before forwarding a packet."""
        observers = self._transit_observers.get(node)
        if observers:
            now = self.sim.now
            for observer in observers:
                observer(packet, node, now)

    # ------------------------------------------------------------------
    # Runtime control
    # ------------------------------------------------------------------
    def run_until(self, time: float) -> float:
        """Advance the simulation clock to ``time``.

        Attached delivery sinks are flushed at the boundary, so batch
        consumers have observed every delivery up to the returned time.
        """
        now = self.sim.run_until(time)
        if self._delivery_sinks:
            self.flush_delivery_sinks()
        return now

    def run(self) -> float:
        """Run until all events drain (delivery sinks flushed at the end)."""
        now = self.sim.run()
        if self._delivery_sinks:
            self.flush_delivery_sinks()
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            # Full drain: every idle live channel must hold all its credits.
            sanitizer.check_credits(self.channels)
        return now

    def fail_link(self, u: int, v: int) -> None:
        """Fail a link mid-run with graceful degradation.

        Both directed channels die. Packets parked in their output queues
        never started crossing, so they are handed back to the sender switch
        and routed again (:meth:`Switch.redispatch`): adaptive routers find
        a detour, deterministic ones drop them with reason ``link_failed``
        instead of raising. A packet already serializing or on the wire is
        lost when it would have arrived (see :meth:`Channel._arrive`), which
        returns its receiver credit so the restored link runs at full
        capacity. The topology's :class:`repro.topology.links.LinkSet`
        version bump invalidates the distance oracle and memoized routing
        tables, so reroutes see the post-failure network.
        """
        self.topology.fail_link(u, v)
        stranded: List[Tuple[int, Packet]] = []
        for a, b in ((u, v), (v, u)):
            channel = self.channels[(a, b)]
            channel.failed = True
            while channel.queue:
                stranded.append((a, channel.queue.popleft()))
        # Redispatch only after BOTH directions are marked dead, or a packet
        # could be steered straight onto the other doomed channel.
        switches = self.switches
        for a, packet in stranded:
            switches[a].redispatch(packet)

    def restore_link(self, u: int, v: int) -> None:
        """Restore a previously failed link."""
        self.topology.restore_link(u, v)
        for a, b in ((u, v), (v, u)):
            channel = self.channels[(a, b)]
            channel.failed = False
            channel.kick()

    def pending_work(self) -> int:
        """Packets parked in channel queues or receiver buffers right now.

        This is the watchdog's deadlock probe: if the event queue has
        drained but this is non-zero, those packets can never move again.
        """
        total = 0
        for channel in self.channels.values():
            total += len(channel.queue) + (channel.buffer_capacity - channel.credits)
        return total

    def livelocked(self, packet: Packet, node: int) -> None:
        """Drop a packet that hit the watchdog's hop ceiling.

        The drop is counted under reason ``livelock`` and reported to the
        watchdog, which terminates the run once its tolerance is exceeded.
        """
        self.drop(packet, node, "livelock")
        watchdog = self.sim.watchdog
        if watchdog is not None:
            watchdog.note_livelock(self.sim, packet.hops)

