"""Arming fault campaigns against a running fabric.

:class:`FaultInjector` turns the declarative specs of a
:class:`repro.faults.campaign.FaultCampaign` into scheduled simulator events
and fabric hooks, and owns the bookkeeping that keeps overlapping faults
safe: link operations are idempotent with *ownership tracking* (a restore
only touches links this injector failed and that are still down, so a
crash overlapping a flap never raises), and every fault leaves a trail in
:class:`FaultCounters` for the experiment record.

The injector draws all randomness from one seeded stream (by convention the
simulator registry's ``"faults"`` stream), so campaigns are reproducible
per seed and independent of traffic-generation draws. Nothing here runs on
the per-packet hot path unless a packet-level fault or NIC stall is armed —
the fabric's ``fault_hook`` / ``_inject_gate`` stay ``None`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import FaultError
from repro.faults.campaign import FaultCampaign, PacketFaultSpec
from repro.network.fabric import Fabric
from repro.network.packet import Packet
from repro.topology.links import canonical_link

__all__ = ["FaultCounters", "FaultInjector"]


@dataclass
class FaultCounters:
    """Per-fault tallies accumulated by a :class:`FaultInjector`.

    Attributes
    ----------
    links_failed / links_restored:
        Link state transitions actually performed (idempotent duplicates
        and not-owned restores are not counted).
    switch_crashes / switch_restarts:
        Switch-level events (each crash also counts its severed links).
    nic_stall_drops:
        Injections swallowed by a stalled NIC.
    packet_drops / packet_duplicates / packet_bitflips:
        Packet-level faults applied by the forwarding hook.
    """

    links_failed: int = 0
    links_restored: int = 0
    switch_crashes: int = 0
    switch_restarts: int = 0
    nic_stall_drops: int = 0
    packet_drops: int = 0
    packet_duplicates: int = 0
    packet_bitflips: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for result records."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def total(self) -> int:
        """Sum of all tallies (quick 'did anything fire' check)."""
        return sum(getattr(self, f.name) for f in fields(self))


class FaultInjector:
    """Arms one campaign against one fabric.

    Parameters
    ----------
    campaign:
        The declarative fault schedule.
    fabric:
        The running network to hurt.
    rng:
        Seeded ``numpy.random.Generator`` for stochastic specs — pass the
        simulator's ``rng.stream("faults")`` so campaigns replay per seed.
    horizon:
        Default end time for open-ended stochastic windows (normally the
        experiment duration).
    """

    def __init__(self, campaign: FaultCampaign, fabric: Fabric, *,
                 rng: Optional[np.random.Generator] = None,
                 horizon: float = 0.0) -> None:
        self.campaign = campaign
        self.fabric = fabric
        self.rng = rng if rng is not None else fabric.sim.rng.stream("faults")
        self.horizon = float(horizon)
        self.counters = FaultCounters()
        self._armed = False
        #: links this injector failed that are still down (ownership).
        self._down: Set[Tuple[int, int]] = set()
        #: crashed node -> neighbors whose links the crash severed.
        self._crashed: Dict[int, Tuple[int, ...]] = {}
        self._packet_faults: List[PacketFaultSpec] = []
        self._nic_stalls: List[Tuple[int, float, float]] = []

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Validate every spec against the fabric and schedule the campaign.

        Must be called before the simulation runs past the earliest fault
        time; arming twice is a :class:`repro.errors.FaultError`.
        """
        if self._armed:
            raise FaultError("campaign already armed")
        self._armed = True
        for spec in self.campaign.specs:
            spec.arm(self)
        if self._packet_faults:
            if self.fabric.fault_hook is not None:
                raise FaultError("fabric already has a fault_hook installed")
            self.fabric.fault_hook = self._packet_hook
        if self._nic_stalls:
            if self.fabric._inject_gate is not None:
                raise FaultError("fabric already has an injection gate installed")
            self.fabric._inject_gate = self._inject_gate

    def schedule(self, at_time: float, fn: Callable, *args) -> None:
        """Schedule a fault action at absolute simulated time ``at_time``."""
        sim = self.fabric.sim
        delay = at_time - sim.now
        if delay < 0:
            raise FaultError(
                f"fault time {at_time} is in the past (now={sim.now}); "
                "arm the campaign before running the simulation"
            )
        sim.schedule_call(delay, fn, *args, label="fault")

    # -- spec-facing validation helpers --------------------------------
    def require_node(self, node: int) -> None:
        """Raise :class:`FaultError` unless ``node`` is in the topology."""
        if not self.fabric.topology.contains(node):
            raise FaultError(
                f"fault names node {node}, outside topology of "
                f"{self.fabric.topology.num_nodes} nodes"
            )

    def require_link(self, u: int, v: int) -> None:
        """Raise :class:`FaultError` unless ``(u, v)`` is a physical link."""
        self.require_node(u)
        self.require_node(v)
        if not self.fabric.topology.links.exists(u, v):
            raise FaultError(f"fault names nonexistent link ({u}, {v})")

    def add_packet_fault(self, spec: PacketFaultSpec) -> None:
        """Register a stochastic packet fault with the forwarding hook."""
        self._packet_faults.append(spec)

    def add_nic_stall(self, node: int, start_at: float, end_at: float) -> None:
        """Register a NIC stall window with the injection gate."""
        self._nic_stalls.append((node, float(start_at), float(end_at)))

    # ------------------------------------------------------------------
    # Link / switch actions (ownership-tracked, overlap-safe)
    # ------------------------------------------------------------------
    def fail_link(self, u: int, v: int) -> bool:
        """Fail ``(u, v)`` if it is currently up; returns True when it acted."""
        fabric = self.fabric
        if not fabric.topology.links.is_up(u, v):
            return False  # already down (overlapping fault) — idempotent
        fabric.fail_link(u, v)
        self._down.add(canonical_link(u, v))
        self.counters.links_failed += 1
        return True

    def restore_link(self, u: int, v: int) -> bool:
        """Restore ``(u, v)`` if this injector failed it; True when it acted."""
        key = canonical_link(u, v)
        if key not in self._down:
            return False  # not ours (or already restored) — leave it alone
        self._down.discard(key)
        self.fabric.restore_link(u, v)
        self.counters.links_restored += 1
        return True

    def crash_switch(self, node: int) -> None:
        """Sever every live link of ``node`` (idempotent per crashed node)."""
        if node in self._crashed:
            return
        severed = tuple(
            nbr for nbr in self.fabric.topology.neighbors(node)
            if self.fail_link(node, nbr)
        )
        self._crashed[node] = severed
        self.counters.switch_crashes += 1

    def restart_switch(self, node: int) -> None:
        """Restore the links a previous :meth:`crash_switch` severed."""
        severed = self._crashed.pop(node, None)
        if severed is None:
            return
        for nbr in severed:
            self.restore_link(node, nbr)
        self.counters.switch_restarts += 1

    # ------------------------------------------------------------------
    # Hot-path hooks (installed only when a matching spec is armed)
    # ------------------------------------------------------------------
    def _packet_hook(self, packet: Packet, node: int, next_node: int) -> bool:
        # Fabric.fault_hook contract: return False iff the packet was
        # consumed (dropped and counted) here.
        fabric = self.fabric
        now = fabric.sim.now
        rng = self.rng
        counters = self.counters
        for spec in self._packet_faults:
            if spec.node is not None and spec.node != node:
                continue
            if now < spec.start_at or (spec.end_at is not None
                                       and now >= spec.end_at):
                continue
            if rng.random() >= spec.probability:
                continue
            mode = spec.mode
            if mode == "drop":
                counters.packet_drops += 1
                fabric.drop(packet, node, "fault_injected")
                return False
            if mode == "duplicate":
                channel = fabric.switches[node].outputs[next_node]
                if not channel.failed:
                    counters.packet_duplicates += 1
                    channel.enqueue(packet.clone())
            else:  # bitflip: corrupt one random Marking-Field bit
                counters.packet_bitflips += 1
                packet.header.identification ^= 1 << int(rng.integers(0, 16))
        return True

    def _inject_gate(self, packet: Packet, node: int) -> bool:
        # Fabric._inject_gate contract: False swallows the injection (the
        # fabric records the drop under reason "nic_stalled").
        now = self.fabric.sim.now
        for stalled_node, start_at, end_at in self._nic_stalls:
            if stalled_node == node and start_at <= now < end_at:
                self.counters.nic_stall_drops += 1
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return (f"FaultInjector(specs={len(self.campaign)}, armed={self._armed}, "
                f"fired={self.counters.total()})")
