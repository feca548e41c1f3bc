"""One route table per (router, topology, link version), read by every engine.

A switch's routing function maps (current node, destination) to its legal
next hops (paper §3, Figure 4). Every table-driven router — dimension order
(XY, e-cube), the turn models, minimal adaptive — reads only the *signs* of
the minimal offset to the destination, the offset DDPM marks (§5). So the
map has one row per (node, sign class): n·3^d rows on a mesh or torus,
n·2^d on a hypercube, against n² (node, destination) pairs.

Each router declares that map beside its ``candidates`` as a
:class:`~repro.routing.base.ClosedForm` — ordered phases of (axis, sign)
moves plus a gate — and :class:`RouteTable` evaluates it for many rows at
once over per-move step tables, with failed links masked out. Two reads:

* the table itself — the scalar read, a dict from destination to one
  candidate tuple per node, each column built on its first read from a
  cache of the (node, class) rows earlier columns touched, so columns
  share their tuples and a column fills at most n new rows (a hypercube's
  n² rows are never built whole). The exact engine's switches index it
  per hop (:class:`~repro.network.fabric.Fabric` holds it under the link
  version it was read at); :meth:`RouteTable.candidates` and
  :func:`~repro.routing.base.walk_route` read it too.
* :meth:`RouteTable.lookup` — the columnar read. The cohort engines call it
  per round; it takes each row's sign class from
  :meth:`~repro.topology.base.Topology.offset_array` and indexes the
  (node, class) table, filled whole by the first lookup. It hands out each
  candidate's *channel*, ``node * moves + move``, numbered by the first
  move that reaches that neighbour (a hypercube's two moves along one axis
  reach the same one); :attr:`RouteTable.channel_target` names the node a
  channel leads to.

A router without a closed form on the topology's link state — Valiant,
odd-even, non-minimal west-first, pooled fully-adaptive, fully-adaptive
around a failed link — has no table: :func:`next_hops` asks it live, and
the cohort engines refuse it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.routing.base import LIVE, RouteState, Router
from repro.topology.base import Topology

__all__ = ["RouteTable", "route_table", "next_hops"]


def route_table(router: Router, topology: Topology) -> Optional["RouteTable"]:
    """The router's table for the topology's current link state.

    ``None`` for a router without a closed form there. The router holds one
    entry, rebuilt when it meets another topology or the link set changes
    version, so a link failure invalidates the table with one integer
    compare.
    """
    entry = getattr(router, "_route_table", None)
    version = topology.links.version
    if entry is None or entry[0] is not topology or entry[1] != version:
        table = RouteTable(router, topology) if router.closed_form(topology) else None
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


class RouteTable(dict):
    """Candidate next hops of one table-driven router on one link state.

    The table is its own scalar read: a dict from destination to column,
    one candidate tuple per node, each column built on its first read.
    Build it through :func:`route_table`, which keys it by link version.
    """

    def __init__(self, router: Router, topology: Topology):
        super().__init__()
        self.topology = topology
        self.n = n = topology.num_nodes
        #: candidate-matrix columns (and the cohort engines' ports per node)
        self.width = max(topology.degree(), 1)
        form = router.closed_form(topology)
        axis, sign = np.array([move for phase in form.phases for move in phase]).T
        sizes = [len(phase) for phase in form.phases]
        self._phase = np.repeat(np.arange(len(sizes)), sizes)
        self._starts = np.cumsum([0] + sizes[:-1])
        self._gate_live = form.gate == LIVE

        # Sign classes: the offset's signs as little-endian digits, base 3
        # shifted by one (balanced ternary) or, since a hypercube's XOR
        # offset is never negative, base 2 there.
        dims = np.asarray(topology.dims, dtype=np.int64)
        base, shift = (2, 0) if topology.kind == "hypercube" else (3, 1)
        self._weights = base ** np.arange(dims.size, dtype=np.int64)
        self._shift = shift * int(self._weights.sum())
        self._classes = base ** dims.size
        signs = np.arange(self._classes)[:, None] // self._weights % base - shift
        self._profitable = signs[:, axis] == sign  # (class, move)

        # Each move's target per node, -1 where the topology has no such
        # link; torus and hypercube axes wrap, hypercube steps toggle a bit.
        coords = topology.coord_array()
        strides = np.append(np.cumprod(dims[::-1])[::-1][1:], 1)
        shifted = coords[:, axis] + sign
        if topology.kind == "mesh":
            exists = (shifted >= 0) & (shifted < dims[axis])
        else:
            shifted %= dims[axis]
            exists = np.broadcast_to(dims[axis] > 1, shifted.shape)
        self._nodes = nodes = np.arange(n, dtype=np.int64)
        self._target = np.where(
            exists, nodes[:, None] + (shifted - coords[:, axis]) * strides[axis], -1)
        #: directed channels ``node * moves + move``, and the node each leads to
        self.channels = self._target.size
        self.channel_target = self._target.reshape(-1)
        # Directed (node * n + neighbor) keys of every failed link.
        failed = np.array(sorted(topology.links.failed_links),
                          dtype=np.int64).reshape(-1, 2)
        down = np.concatenate([failed @ [n, 1], failed @ [1, n]])
        self._up = exists & ~np.isin(nodes[:, None] * n + self._target, down)

        # Each node's first row; row = node * classes + sign class.
        self._row0 = nodes * self._classes
        # The (node, class) rows scalar reads have touched, as tuples: a
        # column shares them instead of building one per node. Offset zero
        # (the packet is at its destination) has no candidates on any node.
        self._rows: Dict[int, Tuple[int, ...]] = dict.fromkeys(
            (self._row0 + self._shift).tolist(), ())
        # Columnar read: the (node, class) candidate channels and degrees,
        # filled by the first lookup.
        self._chan = self._deg = None

    def _fill(self, rows: np.ndarray,
              table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``table`` (one entry per node and move) at the candidate moves of
        the (node, sign class) ``rows``, row = node * classes + class, padded
        with -1, and the degrees: the closed form, evaluated."""
        nodes, classes = np.divmod(rows, self._classes)
        profitable = self._profitable[classes]
        live = profitable & self._up[nodes]
        gated = live if self._gate_live else profitable
        # First gated phase per row; phase 0 when none is, which then has
        # no live move either (live implies gated).
        chosen = np.logical_or.reduceat(gated, self._starts, axis=1).argmax(1)
        keep = live & (self._phase == chosen[:, None])
        # Pack each row's kept moves left in move order: nonzero walks the
        # rows in order, so a kept move's slot is its rank past the row's
        # first.
        deg = keep.sum(axis=1)
        row, move = np.nonzero(keep)
        out = np.full((keep.shape[0], self.width), -1, dtype=np.int64)
        out[row, np.arange(row.size) - (np.cumsum(deg) - deg)[row]] = \
            table[nodes[row], move]
        return out, deg

    def _sign_class(self, pos: np.ndarray, dst: np.ndarray) -> np.ndarray:
        offsets = self.topology.offset_array(pos, dst)
        return np.sign(offsets) @ self._weights + self._shift

    def candidates(self, current: int, destination: int) -> Tuple[int, ...]:
        """Legal next hops from ``current`` toward ``destination``."""
        return self[destination][current]

    def __missing__(self, destination: int) -> List[Tuple[int, ...]]:
        """Every node's candidates toward ``destination``: one row per node,
        filled only where no earlier column touched it."""
        rows = (self._row0 + self._sign_class(
            self._nodes, np.full(self.n, destination, dtype=np.int64))).tolist()
        cache = self._rows
        # One row per node, so a column never names a row twice.
        missing = [row for row in rows if row not in cache]
        if missing:
            cand, deg = self._fill(np.array(missing, dtype=np.int64),
                                   self._target)
            cache.update(zip(missing, (tuple(row[:d]) for row, d in
                                       zip(cand.tolist(), deg.tolist()))))
        column = self[destination] = list(map(cache.__getitem__, rows))
        return column

    def lookup(self, pos: np.ndarray,
               dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (candidate channel matrix, degree) for a cohort's
        positions; ``channel_target`` maps the channels to next hops."""
        if self._chan is None:
            # A move's channel is that of the node's first move to the same
            # neighbour, so moves sharing a link share its channel.
            target = self._target
            first = (target[:, :, None] == target[:, None, :]).argmax(axis=2)
            self._chan, self._deg = self._fill(
                np.arange(self.n * self._classes, dtype=np.int64),
                self._nodes[:, None] * target.shape[1] + first)
        rows = pos * self._classes + self._sign_class(pos, dst)
        return self._chan.take(rows, axis=0), self._deg.take(rows)
