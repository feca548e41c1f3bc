"""Memoized all-pairs distance lookup — the hot-path replacement for ``min_hops``.

Every forwarded packet needs the minimal hop count between two nodes (the
profitability test in :class:`repro.network.switch.Switch` and
:func:`repro.routing.base.walk_route`). Calling ``Topology.min_hops`` per hop
rebuilds coordinate tuples (mesh/torus) or runs a full BFS (irregular) each
time; :class:`DistanceOracle` computes the same numbers from precomputed
coordinate tables — O(dims) arithmetic for mesh/torus, one XOR popcount for
hypercubes, and a cached per-source BFS row for irregular graphs.

Two modes:

``live=False`` (default)
    Bit-identical to ``Topology.min_hops``: analytic formulas ignore link
    failures (mesh/torus/hypercube define minimal distance on the failure-free
    network), and irregular topologies use BFS over *all* physical links,
    matching :meth:`IrregularTopology.min_hops`.

``live=True``
    Distances over currently-live links only (BFS for every topology kind).
    Cached rows are invalidated automatically when ``fail_link`` /
    ``restore_link`` bump :attr:`repro.topology.links.LinkSet.version` — the
    oracle compares one integer per lookup, so invalidation costs nothing
    when the link set is stable.

Unreachable pairs in live mode report ``math.inf`` (a failed partition has no
finite distance); ``min_hops`` semantics never produce ``inf`` in default
mode for connected physical graphs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

import numpy as np

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.topology.hypercube import Hypercube
from repro.topology.irregular import IrregularTopology
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus
from repro.util.bitops import popcount

__all__ = ["DistanceOracle"]


class DistanceOracle:
    """O(1)-ish minimal-distance lookup over one topology.

    Parameters
    ----------
    topology:
        The network to answer distance queries for.
    live:
        False (default): reproduce ``topology.min_hops`` exactly.
        True: distances over live links only, invalidated on link failures.
    """

    __slots__ = ("topology", "live", "distance", "_coords", "_rows", "_version",
                 "_include_failed", "_pair_cache", "_table")

    #: closed-form distances are frozen into an n x n table up to this many
    #: nodes (256 -> 64k ints, ~4 ms to fill by columnar offset passes);
    #: larger networks keep the per-call closed form rather than paying
    #: quadratic memory
    TABLE_MAX_NODES = 256

    def __init__(self, topology: Topology, live: bool = False):
        self.topology = topology
        self.live = live
        self._rows: Dict[int, Dict[int, float]] = {}
        self._version = topology.links.version
        self._pair_cache: Dict[int, int] = {}
        #: ``distance(u, v)`` — rebound to the fastest exact implementation
        #: for this topology kind at construction time.
        self.distance: Callable[[int, int], float]
        if live:
            self._include_failed = False
            self.distance = self._bfs_distance
        elif type(topology) in (Mesh, Torus) or isinstance(topology, Hypercube):
            self._coords = tuple(topology.coord(i) for i in topology.nodes())
            self.distance = {"mesh": self._mesh_distance, "torus": self._torus_distance,
                             "hypercube": self._hypercube_distance}[topology.kind]
            self._freeze_table()
        elif (isinstance(topology, IrregularTopology)
              and type(topology).min_hops is IrregularTopology.min_hops):
            # IrregularTopology.min_hops is BFS over all physical links.
            self._include_failed = True
            self.distance = self._bfs_distance
        else:
            # Unknown subclass with its own min_hops: memoize it pairwise so
            # the oracle stays exact for any Topology implementation.
            self.distance = self._generic_distance

    def _freeze_table(self) -> None:
        """Precompute the full closed-form distance matrix for small networks.

        Closed-form distances ignore link failures by definition of
        ``min_hops``, so a static table stays exact for the oracle's
        lifetime; ``distance`` is rebound to a nested-list index — one
        hash-free lookup per hop instead of coordinate arithmetic. Row u is
        the L1 norm of :meth:`~Topology.offset_array` from u to every node
        (XOR bits on a hypercube), the closed forms' own definition.
        """
        n = self.topology.num_nodes
        if n > self.TABLE_MAX_NODES:
            return
        nodes = np.arange(n, dtype=np.int64)
        self._table = []
        # Sixteen sources per pass keep each pass's int64 temporaries at
        # 64 KB (at the cap); n² rows at once would be megabytes, and every
        # experiment's peak RSS would carry them.
        for block in np.split(nodes, range(16, n, 16)):
            offsets = self.topology.offset_array(np.repeat(block, n), np.tile(nodes, block.size))
            self._table += np.abs(offsets).sum(axis=1).reshape(block.size, n).tolist()
        self.distance = self._table_distance

    def _table_distance(self, u: int, v: int) -> int:
        return self._table[u][v]

    # ------------------------------------------------------------------
    # Closed forms (failure-free by definition of min_hops)
    # ------------------------------------------------------------------
    def _mesh_distance(self, u: int, v: int) -> int:
        coords = self._coords
        a, b = coords[u], coords[v]
        total = 0
        for x, y in zip(a, b):
            total += x - y if x >= y else y - x
        return total

    def _torus_distance(self, u: int, v: int) -> int:
        coords = self._coords
        a, b = coords[u], coords[v]
        total = 0
        for x, y, k in zip(a, b, self.topology.dims):
            r = (y - x) % k
            if r > k // 2:
                r = k - r
            total += r
        return total

    def _hypercube_distance(self, u: int, v: int) -> int:
        return popcount(u ^ v)

    # ------------------------------------------------------------------
    # Cached BFS rows (irregular graphs, live mode)
    # ------------------------------------------------------------------
    def _bfs_distance(self, u: int, v: int) -> float:
        version = self.topology.links.version
        if version != self._version:
            self._rows.clear()
            self._version = version
        row = self._rows.get(u)
        if row is None:
            from repro.topology.properties import bfs_distances

            row = bfs_distances(self.topology, u,
                                include_failed=self._include_failed)
            self._rows[u] = row
        dist = row.get(v)
        if dist is None:
            if self.live:
                return math.inf
            raise TopologyError(f"{v} unreachable from {u}")
        return dist

    def _generic_distance(self, u: int, v: int) -> int:
        version = self.topology.links.version
        if version != self._version:
            self._pair_cache.clear()
            self._version = version
        key = u * self.topology.num_nodes + v
        cache = self._pair_cache
        dist = cache.get(key)
        if dist is None:
            dist = self.topology.min_hops(u, v)
            cache[key] = dist
        return dist

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached BFS row / memoized pair (forces recompute)."""
        self._rows.clear()
        self._pair_cache.clear()
        self._version = self.topology.links.version

    def __repr__(self) -> str:  # pragma: no cover
        mode = "live" if self.live else "min_hops"
        return (f"DistanceOracle({type(self.topology).__name__}, mode={mode}, "
                f"cached_rows={len(self._rows)})")
