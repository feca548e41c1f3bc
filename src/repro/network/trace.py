"""Packet-path instrumentation.

:class:`PathObserver` taps a fabric's delivery stream and aggregates, per
(true source, destination) pair, the set of distinct node paths observed —
the direct measurement behind the paper's central premise that adaptive
routing makes routes unstable (§4.1 assumption 6). Requires the fabric's
``trace_packets`` config flag so packets carry their paths.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import ConfigurationError
from repro.network.fabric import Fabric
from repro.network.nic import DeliveredPacket

__all__ = ["PathObserver"]

PairKey = Tuple[int, int]


class PathObserver:
    """Collects distinct delivered paths per (true_source, destination) pair."""

    def __init__(self, fabric: Fabric, nodes=None):
        if not fabric.config.trace_packets:
            raise ConfigurationError(
                "PathObserver requires FabricConfig(trace_packets=True)"
            )
        self._paths: Dict[PairKey, Set[Tuple[int, ...]]] = {}
        self._counts: Dict[PairKey, int] = {}
        watch = fabric.topology.nodes() if nodes is None else nodes
        for node in watch:
            # Diagnostic-only tap: path tracing inherently needs each
            # delivered packet's trace object, so the per-packet handler is
            # sanctioned here (tracing fabrics are never the perf path).
            fabric.add_delivery_handler(node, self._on_delivery)  # repro-lint: disable=H3

    def _on_delivery(self, event: DeliveredPacket) -> None:
        packet = event.packet
        if packet.trace is None:
            return
        key = (packet.true_source, event.node)
        self._paths.setdefault(key, set()).add(tuple(packet.trace))
        self._counts[key] = self._counts.get(key, 0) + 1

    def distinct_paths(self, source: int, destination: int) -> List[Tuple[int, ...]]:
        """Distinct node paths observed for the pair, sorted for determinism."""
        return sorted(self._paths.get((source, destination), set()))

    def path_diversity(self, source: int, destination: int) -> int:
        """Number of distinct paths seen for the pair."""
        return len(self._paths.get((source, destination), set()))

    def deliveries(self, source: int, destination: int) -> int:
        """Total delivered packets for the pair."""
        return self._counts.get((source, destination), 0)

    def pairs(self) -> List[PairKey]:
        """All observed (source, destination) pairs."""
        return sorted(self._paths)
