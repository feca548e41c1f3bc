"""One route table per (router, topology, link version), read by every engine.

A switch's routing function maps (current node, destination) to its legal
next hops (paper §3, Figure 4). For a *table-driven* router that map depends
on nothing else, so it is computed once per link state and read two ways:

* :meth:`RouteTable.candidates` — the scalar read. The exact engine's
  switches and :func:`~repro.routing.base.walk_route` call it per hop; it
  keeps one tuple per node for every destination column asked about, and
  never allocates the n² row map.
* :meth:`RouteTable.lookup` — the columnar read. The cohort engines call it
  per round; it keeps a dense int32 (node, destination) -> row map over a
  padded candidate matrix, filled lazily for unseen keys.

Both reads draw on one fill. Routers whose candidates are exactly
:meth:`~repro.routing.base.Router.minimal_candidates` fill in bulk on
meshes, tori and hypercubes: coordinate arithmetic over per-axis step
tables, with failed links masked out. Every other table-driven router
(dimension order, the minimal turn models) fills pair by pair through
``router.candidates``.

Table-driven routers are the ``is_stateless`` ones, plus prefer-minimal
fully-adaptive while no link is failed (every minimal step is then live, so
its misroute fallback never fires). Stateful routers — Valiant, odd-even,
pooled fully-adaptive, fully-adaptive around a failed link — have no table:
:func:`next_hops` asks them live, and the cohort engines refuse them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.routing.adaptive import FullyAdaptiveRouter, MinimalAdaptiveRouter
from repro.routing.base import RouteState, Router
from repro.topology.base import Topology

__all__ = ["RouteTable", "route_table", "next_hops"]

#: topology kinds whose minimal candidates are closed-form in the coordinates
_CLOSED_FORM_KINDS = ("mesh", "torus", "hypercube")


def _minimal_only(router: Router, topology: Topology) -> bool:
    """True when ``router.candidates`` equals ``minimal_candidates`` here."""
    if isinstance(router, MinimalAdaptiveRouter):
        return True
    return (isinstance(router, FullyAdaptiveRouter) and router.prefer_minimal
            and not topology.links.failed_links)


def route_table(router: Router, topology: Topology) -> Optional["RouteTable"]:
    """The router's table for the topology's current link state.

    ``None`` for a stateful router. The router holds one entry, rebuilt when
    it meets another topology or the link set changes version, so a link
    failure invalidates the table with one integer compare.
    """
    entry = getattr(router, "_route_table", None)
    version = topology.links.version
    if entry is None or entry[0] is not topology or entry[1] != version:
        driven = router.is_stateless or _minimal_only(router, topology)
        table = RouteTable(router, topology) if driven else None
        entry = router._route_table = (topology, version, table)
    return entry[2]


def next_hops(router: Router, topology: Topology, current: int,
              state: RouteState) -> Tuple[int, ...]:
    """Legal next hops for a packet at ``current``: the table's answer for a
    table-driven router, the router's live one otherwise."""
    table = route_table(router, topology)
    if table is None:
        return router.candidates(topology, current, state)
    return table.candidates(current, state.destination)


class RouteTable:
    """Candidate next hops of one table-driven router on one link state.

    Build it through :func:`route_table`, which keys it by link version.
    """

    def __init__(self, router: Router, topology: Topology):
        self.router = router
        self.topology = topology
        self.n = topology.num_nodes
        #: candidate-matrix columns (and the cohort engines' ports per node)
        self.width = max(topology.degree(), 1)
        self._bulk = (topology.kind in _CLOSED_FORM_KINDS
                      and _minimal_only(router, topology))
        if self._bulk:
            self._build_step_tables()
        # Scalar read: destination -> one candidate tuple per node (None
        # until probed, for the pair-by-pair fill).
        self._columns: Dict[int, List[Optional[Tuple[int, ...]]]] = {}
        # Columnar read: the dense row map is allocated by the first lookup.
        self._row_of: Optional[np.ndarray] = None
        self._cand = np.full((256, self.width), -1, dtype=np.int64)
        self._deg = np.zeros(256, dtype=np.int64)
        self._count = 0

    def _build_step_tables(self) -> None:
        """Per-axis step targets and the failed-link mask for the bulk fill.

        ``_step[node, axis, d]`` is the neighbor one hop along ``axis`` in
        direction d (0 = minus, 1 = plus), -1 where the topology has no such
        link; torus and hypercube axes wrap, hypercube steps toggle a bit.
        """
        topology = self.topology
        dims = np.asarray(topology.dims, dtype=np.int64)
        coords = topology.coord_array()
        strides = np.append(np.cumprod(dims[::-1])[::-1][1:], 1)
        shifted = coords[:, :, None] + np.array([-1, 1], dtype=np.int64)
        if topology.kind == "mesh":
            exists = (shifted >= 0) & (shifted < dims[:, None])
        else:
            shifted %= dims[:, None]
            exists = np.broadcast_to(dims[:, None] > 1, shifted.shape)
        nodes = np.arange(self.n, dtype=np.int64)[:, None, None]
        self._step = np.where(
            exists, nodes + (shifted - coords[:, :, None]) * strides[:, None],
            -1)
        self._dims = dims
        self._coords = coords
        # Directed (node * n + neighbor) keys of every failed link.
        failed = np.array(sorted(topology.links.failed_links),
                          dtype=np.int64).reshape(-1, 2)
        self._failed = (np.concatenate([failed @ [self.n, 1],
                                        failed @ [1, self.n]])
                        if failed.size else None)

    # ------------------------------------------------------------------
    # The fill
    # ------------------------------------------------------------------
    def _probe(self, current: int, destination: int) -> Tuple[int, ...]:
        """One pair through the router itself (fresh route state)."""
        return self.router.candidates(self.topology, current,
                                      RouteState(destination))

    def _fill(self, cur: np.ndarray,
              dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate rows (padded with -1) and their degrees for the
        (``cur``, ``dst``) pairs."""
        m = cur.size
        cand = np.full((m, self.width), -1, dtype=np.int64)
        deg = np.zeros(m, dtype=np.int64)
        if not self._bulk:
            for row, (c, d) in enumerate(zip(cur.tolist(), dst.tolist())):  # per-unseen-pair probe  # repro-lint: disable=H3
                hops = self._probe(c, d)
                cand[row, :len(hops)] = hops
                deg[row] = len(hops)
            return cand, deg
        # Closed-form minimal_candidates: per axis in ascending order, the
        # single profitable live step. Torus offsets fold to the minimal
        # signed residue, ties positive (as torus_distance_vector);
        # hypercube coordinates are bits, and either direction toggles.
        vec = self._coords[dst] - self._coords[cur]
        if self.topology.kind == "torus":
            vec %= self._dims
            vec -= (vec > self._dims // 2) * self._dims
        for axis in range(vec.shape[1]):  # per-axis, a handful  # repro-lint: disable=H3
            comp = vec[:, axis]
            nxt = self._step[cur, axis, (comp > 0).astype(np.int64)]
            valid = (comp != 0) & (nxt >= 0)
            if self._failed is not None:
                valid &= ~np.isin(cur * self.n + nxt, self._failed)
            idx = np.flatnonzero(valid)
            cand[idx, deg[idx]] = nxt[idx]
            deg[idx] += 1
        return cand, deg

    # ------------------------------------------------------------------
    # The two reads
    # ------------------------------------------------------------------
    def candidates(self, current: int, destination: int) -> Tuple[int, ...]:
        """Legal next hops from ``current`` toward ``destination``.

        The first read of a destination fills its whole column in bulk;
        the pair-by-pair fill probes each entry when first read, since a
        column of Python probes costs n router calls.
        """
        column = self._columns.get(destination)
        if column is None:
            column = self._columns[destination] = self._column(destination)
        hops = column[current]
        if hops is None:
            hops = column[current] = self._probe(current, destination)
        return hops

    def _column(self, destination: int) -> List[Optional[Tuple[int, ...]]]:
        if not self._bulk:
            return [None] * self.n
        cand, deg = self._fill(np.arange(self.n, dtype=np.int64),
                               np.full(self.n, destination, dtype=np.int64))
        return [tuple(row[:d]) for row, d in zip(cand.tolist(), deg.tolist())]

    def lookup(self, pos: np.ndarray,
               dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (candidate matrix, degree) for a cohort's positions."""
        if self._row_of is None:
            # One int32 per (node, destination) pair: direct fancy indexing
            # beats a unique+dict probe by an order of magnitude per round,
            # and even the 64x64 torus (4096^2 pairs) costs only 64 MB.
            self._row_of = np.full(self.n * self.n, -1, dtype=np.int32)
        keys = pos * self.n + dst
        picked = self._row_of[keys]
        missing = picked < 0
        if missing.any():
            unseen = np.unique(keys[missing])
            cand, deg = self._fill(unseen // self.n, unseen % self.n)
            start, end = self._count, self._count + unseen.size
            if end > self._deg.size:
                size = max(2 * self._deg.size, end)
                self._cand = np.resize(self._cand, (size, self.width))
                self._deg = np.resize(self._deg, size)
            self._cand[start:end] = cand
            self._deg[start:end] = deg
            self._row_of[unseen] = np.arange(start, end)
            self._count = end
            picked = self._row_of[keys]
        return self._cand[picked], self._deg[picked]
