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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology import coords as C
from repro.topology.links import LinkSet

__all__ = ["Topology"]

Coord = Tuple[int, ...]


class Topology(ABC):
    """Common machinery for regular direct networks.

    Subclasses implement the analytic degree/diameter formulas and the DDPM
    offset algebra, and say whether their axes wrap. Everything else —
    index/coordinate conversion, the neighbour table and what derives from
    it, link bookkeeping, failure injection — lives here.
    """

    #: short machine name, e.g. "mesh", "torus", "hypercube"
    kind: str = "abstract"
    #: True when a move off one end of an axis re-enters at the other (torus
    #: rings, hypercube bit toggles); a mesh's edge moves have no link
    wraps: bool = True

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
        self._neighbor_table: Optional[np.ndarray] = None
        self._coords = None
        self._coord_array: Optional[np.ndarray] = None
        self.links = LinkSet(self)

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
            coords = self._coords = tuple(map(tuple, self.coord_array().tolist()))
        if 0 <= node < self.num_nodes:
            return coords[node]
        return C.index_to_coord(node, self.dims)  # canonical out-of-range error

    def coord_array(self) -> np.ndarray:
        """Every node's coordinates as one ``(num_nodes, len(dims))`` int64
        array, row i = :meth:`coord` (i).

        Built once, by index arithmetic, and read-only, so the columnar
        consumers (DDPM's cohort words, the neighbour table, the
        partitioner) share one copy.
        """
        array = self._coord_array
        if array is None:
            nodes = np.arange(self.num_nodes, dtype=np.int64)[:, None]
            array = nodes // self._strides() % np.asarray(self.dims, dtype=np.int64)
            array.setflags(write=False)
            self._coord_array = array
        return array

    def _strides(self) -> np.ndarray:
        """Index distance of one step along each axis (last axis fastest)."""
        return np.append(np.cumprod(self.dims[:0:-1])[::-1], 1).astype(np.int64)

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
    def neighbor_table(self) -> np.ndarray:
        """The node one hop along every move, as one read-only
        ``(num_nodes, 2 * len(dims))`` int64 array, built once.

        Column ``2 * axis + (sign > 0)`` holds the node reached from row i
        by the move (axis, sign), or -1 where that move has no link: off a
        mesh's edge, or along a size-1 axis. Torus and hypercube axes wrap,
        so a hypercube's two moves along an axis toggle the same bit. Every
        neighbour read — :meth:`neighbors`, :meth:`step`, the link set and
        the route tables' channel targets — derives from this one table.
        """
        table = self._neighbor_table
        if table is None:
            dims = np.repeat(np.asarray(self.dims, dtype=np.int64), 2)
            coords = self.coord_array().repeat(2, axis=1)
            shifted = coords + np.tile([-1, 1], len(self.dims))
            if self.wraps:
                shifted %= dims
                exists = dims > 1
            else:
                exists = (shifted >= 0) & (shifted < dims)
            shifted -= coords
            shifted *= np.repeat(self._strides(), 2)
            shifted += np.arange(self.num_nodes, dtype=np.int64)[:, None]
            table = np.where(exists, shifted, -1)
            table.setflags(write=False)
            self._neighbor_table = table
        return table

    def _physical_neighbors(self, node: int) -> Tuple[int, ...]:
        """Deterministically ordered neighbors of ``node``, ignoring failures:
        axis by axis, the -1 move before the +1 move, each neighbour once."""
        return tuple(dict.fromkeys(v for v in self.neighbor_table()[node].tolist() if v >= 0))

    def step(self, node: int, axis: int, direction: int) -> Optional[int]:
        """Neighbor of ``node`` one hop along ``axis`` in ``direction`` (+1/-1).

        Returns the neighbor's index, or None when the move leaves the
        network (mesh edges). On a hypercube both directions toggle the
        axis's bit. The result ignores link failures; callers filter with
        :meth:`repro.topology.links.LinkSet.is_up`.
        """
        if not 0 <= axis < len(self.dims):
            raise TopologyError(f"axis {axis} out of range for dims {self.dims}")
        if direction not in (-1, 1):
            raise TopologyError(f"direction must be +1 or -1, got {direction}")
        if not 0 <= node < self.num_nodes:
            raise TopologyError(f"node {node} not in topology with {self.num_nodes} nodes")
        target = self.neighbor_table().item(node, 2 * axis + (direction > 0))
        return target if target >= 0 else None

    def neighbors(self, node: int, include_failed: bool = False) -> Tuple[int, ...]:
        """Neighbors of ``node``, by default only over live links."""
        physical = self._neighbor_cache.get(node)
        if physical is None:
            if not self.contains(node):
                raise TopologyError(f"node {node} not in topology with {self.num_nodes} nodes")
            physical = self._neighbor_cache[node] = self._physical_neighbors(node)
        return physical if include_failed else self.links.live(node, physical)

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
