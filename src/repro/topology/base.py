"""Abstract base class for direct-network topologies.

A :class:`Topology` knows its node set (flat indices plus coordinates), its
physical links (with failure state), per-hop coordinate deltas, and — crucial
for DDPM — the *offset algebra* of the network: how per-hop deltas accumulate
into a source-to-destination offset and how a victim inverts that offset back
into a source coordinate (paper §5). Meshes and tori use signed addition
(modular on tori); hypercubes use XOR.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology import coords as C
from repro.topology.links import LinkSet

__all__ = ["Topology"]

Coord = Tuple[int, ...]


class Topology(ABC):
    """Common machinery for regular direct networks.

    Subclasses implement the neighbor rule, the analytic degree/diameter
    formulas, and the DDPM offset algebra. Everything else — index/coordinate
    conversion, link bookkeeping, failure injection — lives here.
    """

    #: short machine name, e.g. "mesh", "torus", "hypercube"
    kind: str = "abstract"

    def __init__(self, dims: Sequence[int]):
        self.dims: Tuple[int, ...] = tuple(dims)
        if not self.dims or any(k < 1 for k in self.dims):
            raise TopologyError(f"dims must be positive, got {self.dims}")
        self.num_nodes = 1
        for k in self.dims:
            self.num_nodes *= k
        if self.num_nodes < 2:
            raise TopologyError(f"a network needs at least 2 nodes, got dims {self.dims}")
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}
        self._oracle = None
        self._coords = None
        self._coord_array: Optional[np.ndarray] = None
        self.links = LinkSet(self._enumerate_links())

    # ------------------------------------------------------------------
    # Node addressing
    # ------------------------------------------------------------------
    def coord(self, node: int) -> Coord:
        """Coordinate tuple of flat node index ``node``.

        Answered from a lazily built table — coordinate lookups happen on
        every routing-table miss and hop-delta computation, so the
        div/mod chain runs once per node, not once per call.
        """
        coords = self._coords
        if coords is None:
            coords = self._coords = tuple(
                C.index_to_coord(i, self.dims) for i in range(self.num_nodes)
            )
        if 0 <= node < self.num_nodes:
            return coords[node]
        return C.index_to_coord(node, self.dims)  # canonical out-of-range error

    def coord_array(self) -> np.ndarray:
        """Every node's coordinates as one ``(num_nodes, len(dims))`` int64
        array, row i = :meth:`coord` (i).

        Built once and read-only, so the columnar consumers (DDPM's cohort
        words, the batched route planner, the partitioner) share one copy.
        """
        array = self._coord_array
        if array is None:
            array = np.array([self.coord(i) for i in self.nodes()],
                             dtype=np.int64)
            array.setflags(write=False)
            self._coord_array = array
        return array

    def index(self, coord: Sequence[int]) -> int:
        """Flat index of coordinate ``coord``."""
        return C.coord_to_index(coord, self.dims)

    def nodes(self) -> range:
        """All node indices."""
        return range(self.num_nodes)

    def contains(self, node: int) -> bool:
        """True when ``node`` is a valid index in this topology."""
        return 0 <= node < self.num_nodes

    # ------------------------------------------------------------------
    # Links and neighbors
    # ------------------------------------------------------------------
    def _enumerate_links(self) -> Iterable[Tuple[int, int]]:
        seen = set()
        for u in range(self.num_nodes):
            for v in self._physical_neighbors(u):
                key = (u, v) if u < v else (v, u)
                seen.add(key)
        return seen

    @abstractmethod
    def _physical_neighbors(self, node: int) -> Tuple[int, ...]:
        """Deterministically ordered neighbors of ``node``, ignoring failures."""

    @abstractmethod
    def step(self, node: int, axis: int, direction: int):
        """Neighbor of ``node`` one hop along ``axis`` in ``direction`` (+1/-1).

        Returns the neighbor's index, or None when the move leaves the
        network (mesh edges). Hypercubes ignore ``direction`` — the only move
        along an axis is a bit toggle. The result ignores link failures;
        callers filter with :meth:`repro.topology.links.LinkSet.is_up`.
        """

    def neighbors(self, node: int, include_failed: bool = False) -> Tuple[int, ...]:
        """Neighbors of ``node``, by default only over live links."""
        if not self.contains(node):
            raise TopologyError(f"node {node} not in topology with {self.num_nodes} nodes")
        physical = self._neighbor_cache.get(node)
        if physical is None:
            physical = tuple(self._physical_neighbors(node))
            self._neighbor_cache[node] = physical
        if include_failed:
            return physical
        return tuple(v for v in physical if self.links.is_up(node, v))

    def is_neighbor(self, u: int, v: int, include_failed: bool = False) -> bool:
        """True when u and v are adjacent (over a live link unless include_failed)."""
        return v in self.neighbors(u, include_failed=include_failed)

    def fail_link(self, u: int, v: int) -> None:
        """Inject a bidirectional link failure (paper Figure 2 fault patterns)."""
        self.links.fail(u, v)

    def restore_link(self, u: int, v: int) -> None:
        """Undo a link failure."""
        self.links.restore(u, v)

    # ------------------------------------------------------------------
    # Metrics (analytic; cross-checked against BFS in tests)
    # ------------------------------------------------------------------
    @abstractmethod
    def degree(self) -> int:
        """Maximum node degree (paper §3 definitions)."""

    @abstractmethod
    def diameter(self) -> int:
        """Largest minimal hop count between any node pair, failure-free."""

    @abstractmethod
    def min_hops(self, src: int, dst: int) -> int:
        """Minimal hop count between src and dst in the failure-free network."""

    def distance_oracle(self) -> "DistanceOracle":
        """Shared memoized distance lookup, equivalent to :meth:`min_hops`.

        Lazily built and cached on the topology; hot paths (switch
        profitability, route walking) go through the oracle so distances are
        closed-form or cached-BFS instead of recomputed per hop.
        """
        if self._oracle is None:
            from repro.topology.oracle import DistanceOracle

            self._oracle = DistanceOracle(self)
        return self._oracle

    # ------------------------------------------------------------------
    # Offset algebra (DDPM)
    # ------------------------------------------------------------------
    @abstractmethod
    def distance_vector(self, src: int, dst: int) -> Coord:
        """Minimal offset vector from src to dst (paper §5's V for a direct route)."""

    @abstractmethod
    def offset_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Columnar :meth:`distance_vector`: row i of the returned
        ``(len(src), len(dims))`` int64 array is the minimal offset from
        ``src[i]`` to ``dst[i]``.

        Computed one axis at a time over contiguous rows and returned as
        their transpose (Fortran order): numpy's per-element loops over a
        length-d inner axis cost several times a whole-axis pass.
        """

    @abstractmethod
    def hop_delta(self, u: int, v: int) -> Coord:
        """Per-hop offset contributed by the single link hop u -> v."""

    def identity_offset(self) -> Coord:
        """The zero offset a NIC writes when injecting a packet."""
        return (0,) * len(self.dims)

    @abstractmethod
    def combine_offsets(self, accumulated: Sequence[int], delta: Sequence[int]) -> Coord:
        """Fold a per-hop delta into an accumulated offset (add, or XOR on hypercubes)."""

    @abstractmethod
    def resolve_source(self, dst: int, offset: Sequence[int]) -> int:
        """Invert an accumulated offset at the destination back to the source node."""

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_edge_list(self, include_failed: bool = False) -> List[Tuple[int, int]]:
        """Sorted list of (u, v) canonical link pairs; live links by default."""
        links = self.links.all_links if include_failed else self.links.live_links()
        return sorted(links)

    def to_networkx(self):
        """Export live links as a ``networkx.Graph`` (requires networkx)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        graph.add_edges_from(self.to_edge_list())
        return graph

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(dims={self.dims}, nodes={self.num_nodes})"
