"""Memoized all-pairs distance lookup — the hot-path replacement for ``min_hops``.

Every forwarded packet needs the minimal hop count between two nodes (the
profitability test in :class:`repro.network.switch.Switch` and
:func:`repro.routing.base.walk_route`). On an irregular graph
``Topology.min_hops`` runs a full BFS each call; :class:`DistanceOracle`
caches one BFS row per source there, freezes small meshes, tori and
hypercubes into an n x n table, and answers larger ones with their
closed-form ``min_hops``.

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
from typing import Callable, Dict

import numpy as np

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.topology.irregular import IrregularTopology

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

    __slots__ = ("topology", "live", "distance", "_rows", "_version",
                 "_include_failed", "_table")

    #: closed-form distances are frozen into an n x n table up to this many
    #: nodes (256 -> 64k ints, ~4 ms to fill by columnar offset passes);
    #: larger networks call the topology's closed-form ``min_hops`` rather
    #: than pay quadratic memory
    TABLE_MAX_NODES = 256

    def __init__(self, topology: Topology, live: bool = False):
        self.topology = topology
        self.live = live
        self._rows: Dict[int, Dict[int, float]] = {}
        self._version = topology.links.version
        #: ``distance(u, v)`` — rebound to the fastest exact implementation
        #: for this topology kind at construction time.
        self.distance: Callable[[int, int], float]
        if live or isinstance(topology, IrregularTopology):
            # Live distances, and IrregularTopology.min_hops, are BFS
            # (over live links, or over all physical links).
            self._include_failed = not live
            self.distance = self._bfs_distance
        else:
            self.distance = topology.min_hops
            self._freeze_table()

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

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached BFS row (forces recompute)."""
        self._rows.clear()
        self._version = self.topology.links.version

    def __repr__(self) -> str:  # pragma: no cover
        mode = "live" if self.live else "min_hops"
        return (f"DistanceOracle({type(self.topology).__name__}, mode={mode}, "
                f"cached_rows={len(self._rows)})")
