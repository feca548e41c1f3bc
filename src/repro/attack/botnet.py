"""TFN/trinoo-style botnet coordination (paper §1, first-generation DDoS).

A master compromises a set of cluster nodes (the "daemons"/"slaves" of the
Tribe Flood Network and trinoo toolkits the paper cites) and triggers a
synchronized flood at a victim, each slave spoofing its source addresses.
The model captures what the defenses see: many concurrent spoofed streams
converging on one node, with per-slave start jitter.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.attack.flows import FlowSpec, Scheduled, schedule_flow
from repro.attack.spoofing import InClusterSpoofing, SpoofingStrategy
from repro.errors import ConfigurationError
from repro.network.fabric import Fabric
from repro.network.packet import PacketKind

__all__ = ["Botnet"]


class Botnet:
    """A compromised-node set with a coordinated flood command.

    Parameters
    ----------
    slaves:
        Node indexes under the attacker's control.
    spoofing:
        Source-address strategy every slave uses (default: in-cluster spoofs,
        the strategy that defeats ingress filtering).
    """

    def __init__(self, slaves: Sequence[int],
                 spoofing: Optional[SpoofingStrategy] = None):
        self.slaves = tuple(dict.fromkeys(slaves))  # dedup, keep order
        if not self.slaves:
            raise ConfigurationError("a botnet needs at least one slave")
        self.spoofing = spoofing if spoofing is not None else InClusterSpoofing()

    @classmethod
    def recruit(cls, topology, count: int, rng: np.random.Generator,
                exclude: Sequence[int] = (),
                spoofing: Optional[SpoofingStrategy] = None) -> "Botnet":
        """Compromise ``count`` random nodes, never the excluded ones (victim)."""
        pool = [n for n in topology.nodes() if n not in set(exclude)]
        if count < 1 or count > len(pool):
            raise ConfigurationError(
                f"cannot recruit {count} slaves from {len(pool)} candidates"
            )
        chosen = rng.choice(len(pool), size=count, replace=False)
        return cls(tuple(pool[int(i)] for i in chosen), spoofing=spoofing)

    def launch(self, fabric: Fabric, victim: int, *, rate_per_slave: float,
               duration: float, rng: np.random.Generator, start: float = 0.0,
               start_jitter: float = 0.0, kind: PacketKind = PacketKind.DATA,
               payload_bytes: int = 64,
               flow_id_base: int = 1000) -> Dict[int, Scheduled]:
        """Command every slave to flood ``victim``; returns packets per slave.

        Each value is what :func:`~repro.attack.flows.schedule_flow`
        returned: the packets on the exact engine, their ids on a cohort
        engine.

        ``start_jitter`` staggers slave start times uniformly in
        [0, start_jitter) — real toolkits do not start all daemons on the
        same tick.
        """
        if victim in self.slaves:
            raise ConfigurationError("the victim cannot be one of the attacking slaves")
        packets: Dict[int, Scheduled] = {}
        for i, slave in enumerate(self.slaves):
            jitter = float(rng.uniform(0.0, start_jitter)) if start_jitter > 0 else 0.0
            spec = FlowSpec(
                source=slave, destination=victim, rate=rate_per_slave,
                start=start + jitter, duration=duration, kind=kind,
                spoofing=self.spoofing, payload_bytes=payload_bytes,
                flow_id=flow_id_base + i,
            )
            packets[slave] = schedule_flow(fabric, spec, rng)
        return packets

    def __repr__(self) -> str:  # pragma: no cover
        return f"Botnet(slaves={len(self.slaves)}, spoofing={self.spoofing.name})"
