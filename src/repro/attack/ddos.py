"""Composite DDoS scenario scheduling: attack flood over background noise."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.attack.botnet import Botnet
from repro.attack.spoofing import SpoofingStrategy
from repro.attack.traffic import TrafficPattern, UniformRandomPattern, schedule_background
from repro.network.fabric import Fabric
from repro.network.packet import Packet, PacketKind

__all__ = ["AttackTrafficResult", "schedule_attack_flood"]


@dataclass
class AttackTrafficResult:
    """Ground truth of one scheduled scenario (for scoring, never for defense).

    ``attackers`` is the true-source node set. ``reflectors`` is non-empty
    only for reflection/amplification scenarios: the innocent-but-abused
    nodes whose replies actually hit the victim (reply-path marks converge
    on these, never on ``attackers``). ``extra`` carries scenario-specific
    ground truth (live worm outbreaks, per-component mix counts).
    """

    victim: int
    attackers: tuple
    attack_packets: List[Packet] = field(default_factory=list)
    background_packets: List[Packet] = field(default_factory=list)
    _frozen_ids: Optional[Set[int]] = field(default=None, repr=False)
    reflectors: tuple = ()
    extra: Dict[str, Any] = field(default_factory=dict)
    _parents: List["AttackTrafficResult"] = field(default_factory=list,
                                                 repr=False)

    def freeze_ids(self) -> Set[int]:
        """Snapshot the attack packet ids into the ground-truth set.

        Called once at schedule time, so the per-packet membership test
        (:meth:`is_attack_packet`) is one O(1) set lookup rather than a
        set rebuild per call, which would be quadratic over a run.
        """
        self._frozen_ids = {p.packet_id for p in self.attack_packets}
        return self._frozen_ids

    @property
    def attack_packet_ids(self) -> Set[int]:
        """Packet ids of all scheduled attack packets."""
        if self._frozen_ids is None:
            return self.freeze_ids()
        return self._frozen_ids

    def is_attack_packet(self, packet: Packet) -> bool:
        """Ground-truth membership test."""
        return packet.packet_id in self.attack_packet_ids

    def register_attack_packet(self, packet: Packet) -> None:
        """Record one attack packet created *after* scheduling.

        Dynamic scenarios (worm scans, reflector replies) emit packets
        mid-run; this keeps the ground-truth id set live by adding the id
        at creation time.
        """
        self.attack_packets.append(packet)
        if self._frozen_ids is None:
            self.freeze_ids()
        else:
            self._frozen_ids.add(packet.packet_id)
        for parent in self._parents:
            parent.register_attack_packet(packet)

    def register_background_packet(self, packet: Packet) -> None:
        """Record one benign packet created mid-run (e.g. session replies)."""
        self.background_packets.append(packet)
        for parent in self._parents:
            parent.register_background_packet(packet)

    def absorb(self, other: "AttackTrafficResult") -> None:
        """Merge another scenario's ground truth into this one (for mixes).

        Attacker/reflector sets union (order-preserving, first occurrence
        wins); packet lists concatenate and the frozen id sets merge, so
        membership tests over the merged result equal the union of the
        parts. The absorbed result keeps a back-link, so packets a dynamic
        scenario registers *after* the merge (reflector replies, worm
        scans) still propagate into this ground truth.
        """
        for node in other.attackers:
            if node not in self.attackers:
                self.attackers = self.attackers + (node,)
        for node in other.reflectors:
            if node not in self.reflectors:
                self.reflectors = self.reflectors + (node,)
        self.attack_packets.extend(other.attack_packets)
        self.background_packets.extend(other.background_packets)
        if self._frozen_ids is None:
            self.freeze_ids()
        else:
            self._frozen_ids.update(other.attack_packet_ids)
        other._parents.append(self)


def schedule_attack_flood(fabric: Fabric, *, victim: int,
                          attackers: Sequence[int],
                          attack_rate_per_node: float,
                          duration: float,
                          rng: np.random.Generator,
                          spoofing: Optional[SpoofingStrategy] = None,
                          background_rate: float = 0.0,
                          background_pattern: Optional[TrafficPattern] = None,
                          attack_kind: PacketKind = PacketKind.DATA,
                          start_jitter: float = 0.0,
                          start: float = 0.0) -> AttackTrafficResult:
    """Schedule a multi-attacker flood plus optional background noise.

    The everyday entry point for the benchmarks: pick attackers, set rates,
    get back the ground truth needed to score identification.
    """
    botnet = Botnet(attackers, spoofing=spoofing)
    per_slave = botnet.launch(
        fabric, victim, rate_per_slave=attack_rate_per_node,
        duration=duration, rng=rng, start=start, start_jitter=start_jitter,
        kind=attack_kind,
    )
    result = AttackTrafficResult(victim=victim, attackers=botnet.slaves)
    for packets in per_slave.values():
        result.attack_packets.extend(packets)
    result.freeze_ids()

    if background_rate > 0.0:
        pattern = background_pattern if background_pattern is not None else UniformRandomPattern()
        sources = [n for n in fabric.topology.nodes() if n != victim]
        result.background_packets = schedule_background(
            fabric, pattern, rate=background_rate, duration=duration,
            rng=rng, sources=sources, start=start,
        )
    return result
