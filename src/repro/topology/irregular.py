"""Irregular topologies (paper §6.3 future work).

The paper's marking schemes assume regular indexable networks; §6.3 notes
that hybrid/irregular networks "do not have a universal regularity and may
need a completely different approach". :class:`IrregularTopology` lets the
simulator run such networks (e.g. a regular network with *removed* nodes, or
an arbitrary adjacency list) with table-driven routing, so the limitation can
be demonstrated rather than asserted: DDPM's offset algebra is deliberately
unavailable here and raises :class:`TopologyError`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.base import Topology

__all__ = ["IrregularTopology"]

_NO_COORDINATES = ("irregular topologies have no coordinate system; DDPM does "
                   "not apply (paper §6.3)")


class IrregularTopology(Topology):
    """An arbitrary connected graph presented through the Topology interface.

    Nodes must be 0..N-1. Coordinates are the 1-tuple ``(node,)`` — there is
    no geometric structure to exploit, which is precisely the point.
    """

    kind = "irregular"

    def __init__(self, num_nodes: int, edges: Iterable[Tuple[int, int]]):
        if num_nodes < 2:
            raise TopologyError(f"need at least 2 nodes, got {num_nodes}")
        adjacency: Dict[int, List[int]] = {i: [] for i in range(num_nodes)}
        seen = set()
        for u, v in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise TopologyError(f"edge ({u}, {v}) references a node outside 0..{num_nodes - 1}")
            if u == v:
                raise TopologyError(f"self-loop ({u}, {v}) not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        if not seen:
            raise TopologyError("edge list is empty")
        self._adjacency = {u: tuple(sorted(vs)) for u, vs in adjacency.items()}
        # Topology.__init__ computes num_nodes from dims; a flat (N,) "dims"
        # gives each node the 1-tuple coordinate (node,).
        super().__init__((num_nodes,))

    def _physical_neighbors(self, node: int) -> Tuple[int, ...]:
        return self._adjacency[node]

    def neighbor_table(self) -> np.ndarray:
        raise TopologyError("irregular topologies have no axes; use table-driven routing")

    # -- metrics (computed, no closed form) -------------------------------
    def degree(self) -> int:
        return max(len(vs) for vs in self._adjacency.values())

    def diameter(self) -> int:
        from repro.topology.properties import diameter as bfs_diameter

        return bfs_diameter(self, include_failed=True)

    def min_hops(self, src: int, dst: int) -> int:
        from repro.topology.properties import bfs_distances

        dist = bfs_distances(self, src, include_failed=True)
        if dst not in dist:
            raise TopologyError(f"{dst} unreachable from {src}")
        return dist[dst]

    # -- offset algebra: intentionally unsupported -------------------------
    def distance_vector(self, src: int, dst: int) -> Tuple[int, ...]:
        raise TopologyError(_NO_COORDINATES)

    def offset_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        raise TopologyError(_NO_COORDINATES)

    def hop_delta(self, u: int, v: int) -> Tuple[int, ...]:
        raise TopologyError(_NO_COORDINATES)

    def combine_offsets(self, accumulated: Sequence[int], delta: Sequence[int]) -> Tuple[int, ...]:
        raise TopologyError(_NO_COORDINATES)

    def resolve_source(self, dst: int, offset: Sequence[int]) -> int:
        raise TopologyError(_NO_COORDINATES)
