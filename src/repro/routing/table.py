"""Table-driven routing for irregular topologies (paper §6.3 direction).

Precomputes, per (current, destination) pair, the set of next hops lying on
*some* shortest live path. This is how switch-based/irregular fabrics route
in practice (forwarding tables), and is the routing the library pairs with
:class:`repro.topology.irregular.IrregularTopology`, where coordinate-based
algorithms are undefined.

Tables are built against the link state at construction; call
:meth:`TableRouter.rebuild` after failing/restoring links.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.errors import RoutingError
from repro.routing.base import RouteState, Router
from repro.topology.base import Topology

__all__ = ["TableRouter", "build_shortest_path_tables"]


def build_shortest_path_tables(topology: Topology) -> Dict[int, Dict[int, Tuple[int, ...]]]:
    """For each destination, map every node to its shortest-path next hops.

    Runs one reverse BFS per destination over live links: O(N * (N + L)).
    ``tables[dst][node]`` is the tuple of neighbors of ``node`` that lie one
    hop closer to ``dst``; empty when ``dst`` is unreachable from ``node``.
    """
    tables: Dict[int, Dict[int, Tuple[int, ...]]] = {}
    for dst in topology.nodes():
        dist = {dst: 0}
        frontier = deque([dst])
        while frontier:
            u = frontier.popleft()
            for v in topology.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    frontier.append(v)
        per_node: Dict[int, Tuple[int, ...]] = {}
        for node in topology.nodes():
            if node == dst or node not in dist:
                per_node[node] = ()
                continue
            hops: List[int] = [
                v for v in topology.neighbors(node)
                if dist.get(v, -2) == dist[node] - 1
            ]
            per_node[node] = tuple(hops)
        tables[dst] = per_node
    return tables


# Not name-constructible: the forwarding tables are built against a live
# topology instance, which the routing registry's factory(rng) signature
# cannot supply; tests/test_registry.py lists it as the one unregistered
# router. Construct it directly next to the IrregularTopology.
class TableRouter(Router):
    """Adaptive shortest-path routing from precomputed forwarding tables."""

    def __init__(self, topology: Topology):
        self.name = "table-driven"
        self._built_for = topology
        self._tables = build_shortest_path_tables(topology)

    def rebuild(self) -> None:
        """Recompute tables after a link-state change."""
        self._tables = build_shortest_path_tables(self._built_for)

    def validate(self, topology: Topology) -> None:
        if topology is not self._built_for:
            raise RoutingError("TableRouter tables were built for a different topology instance")

    def candidates(self, topology: Topology, current: int,
                   state: RouteState) -> Tuple[int, ...]:
        return self._tables[state.destination][current]
