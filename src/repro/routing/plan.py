"""One route table per (router, topology, link version), read by every engine.

A switch's routing function maps (current node, destination) to its legal
next hops (paper §3, Figure 4). Every table-driven router — dimension order
(XY, e-cube), the turn models, minimal adaptive — reads only the *signs* of
the minimal offset to the destination, the offset DDPM marks (§5).

Each router declares that map beside its ``candidates`` as a
:class:`~repro.routing.base.ClosedForm` — ordered phases of (axis, sign)
moves plus a gate — and :class:`RouteTable` evaluates it once, into one
table of moves per (link group, sign class). Group 0 is every node whose
links are all up; there every profitable move's link exists, so the moves
depend on the sign class alone. Each node on a failed link is a group of
its own, with its own live moves. That is 3^d rows on an intact mesh or
torus and 2^d on a hypercube, plus one row group per failed-link node,
against n² (node, destination) pairs. A node's candidate *channel* is
``node * moves + move``; moves reaching the same neighbour (a hypercube's
two moves along one axis) take the first one's channel, and
:attr:`RouteTable.channel_target` names the node a channel leads to. Two
reads:

* the table itself — the scalar read, a dict from destination to one
  candidate tuple per node, each column built on its first read from a
  cache of the (node, class) tuples earlier columns touched, so columns
  share their tuples and a column reads at most n new rows. The exact
  engine's switches index it per hop
  (:class:`~repro.network.fabric.Fabric` holds it under the link version
  it was read at); :meth:`RouteTable.candidates` and
  :func:`~repro.routing.base.walk_route` read it too.
* :meth:`RouteTable.lookup` — the columnar read. The cohort engines call it
  per round; it takes each row's sign class from
  :meth:`~repro.topology.base.Topology.offset_array`, indexes the move
  table and adds the row's ``node * moves``.

A router without a closed form on the topology's link state — Valiant,
odd-even, non-minimal west-first, pooled fully-adaptive, fully-adaptive
around a failed link — has no table: the exact engine and ``walk_route``
ask it live, and the cohort engines refuse it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.routing.base import LIVE, Router
from repro.topology.base import Topology

__all__ = ["RouteTable", "route_table"]


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


class RouteTable(dict):
    """Candidate next hops of one table-driven router on one link state.

    The table is its own scalar read: a dict from destination to column,
    one candidate tuple per node, each column built on its first read.
    Build it through :func:`route_table`, which keys it by link version.
    """

    def __init__(self, router: Router, topology: Topology):
        super().__init__()
        self.topology = topology
        self.n = topology.num_nodes
        #: candidate-matrix columns (and the cohort engines' ports per node)
        self.width = max(topology.degree(), 1)
        form = router.closed_form(topology)
        axis, sign = np.array([move for phase in form.phases for move in phase]).T
        sizes = [len(phase) for phase in form.phases]
        self._stride = moves = axis.size

        # Sign classes: the offset's signs as little-endian digits, base 3
        # shifted by one (balanced ternary) or, since a hypercube's XOR
        # offset is never negative, base 2 there.
        hypercube = topology.kind == "hypercube"
        base, shift = (2, 0) if hypercube else (3, 1)
        self._weights = base ** np.arange(len(topology.dims), dtype=np.int64)
        self._shift = shift * int(self._weights.sum())
        self._classes = classes = base ** len(topology.dims)
        signs = np.arange(classes)[:, None] // self._weights % base - shift

        # Each move's target per node, -1 where the topology has no such
        # link: the topology's neighbour table, itself when the moves are
        # its columns in order (every minimal and dimension-order form).
        table = topology.neighbor_table()
        columns = 2 * axis + (sign > 0)
        target = (table if np.array_equal(columns, np.arange(table.shape[1]))
                  else table[:, columns])
        #: directed channels ``node * moves + move``, and the node each leads to
        self.channels = target.size
        self.channel_target = target.reshape(-1)

        # Link groups. A profitable move's link always exists (the
        # destination lies that way), so on group 0, every node whose links
        # are all up, the moves depend on the sign class alone. Each node on
        # a failed link is a group of its own, with its own links up.
        failed = sorted(topology.links.failed_links)
        nodes = sorted({node for link in failed for node in link})
        self._failed = np.array(nodes, dtype=np.int64)
        up = np.ones((1 + len(nodes), moves), dtype=bool)
        for a, b in failed + [(b, a) for a, b in failed]:
            up[1 + nodes.index(a)] &= target[a] != b

        # The closed form, evaluated once per (group, sign class) row.
        profitable = np.tile(signs[:, axis] == sign, (up.shape[0], 1))
        live = profitable & up.repeat(classes, axis=0)
        gated = live if form.gate == LIVE else profitable
        # First gated phase per row; phase 0 when none is, which then has
        # no live move either (live implies gated).
        chosen = np.logical_or.reduceat(
            gated, np.cumsum([0] + sizes[:-1]), axis=1).argmax(1)
        keep = live & (np.repeat(np.arange(len(sizes)), sizes) == chosen[:, None])
        self._deg = keep.sum(axis=1)
        # Each row's kept moves packed left in move order, as the move whose
        # channel they take: the first move reaching the same neighbour (a
        # hypercube's two moves along one axis reach the same one). Padding
        # is -channels, so ``node * moves`` plus it is still negative.
        key = axis if hypercube else 3 * axis + sign
        first = (key[:, None] == key).argmax(axis=1)
        order = np.argsort(~keep, axis=1, kind="stable")[:, :self.width]
        self._moves = np.where(np.take_along_axis(keep, order, axis=1),
                               first[order], -self.channels)

        # The (node * classes + class) rows scalar reads have touched, as
        # candidate tuples: a column shares them instead of building one
        # per node.
        self._rows: Dict[int, Tuple[int, ...]] = {}

    def _sign_class(self, pos: np.ndarray, dst: np.ndarray) -> np.ndarray:
        offsets = self.topology.offset_array(pos, dst)
        return np.sign(offsets) @ self._weights + self._shift

    def _read(self, pos: np.ndarray,
              classes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate channels (padded with -1) and degrees of the nodes
        ``pos`` at sign classes ``classes``: group 0's row unless the node
        is on a failed link."""
        if self._failed.size:
            group = np.searchsorted(self._failed, pos)
            hit = self._failed.take(group, mode="clip") == pos
            classes = classes + hit * (group + 1) * self._classes
        chan = self._moves.take(classes, axis=0)
        chan += (pos * self._stride)[:, None]
        return np.maximum(chan, -1, out=chan), self._deg.take(classes)

    def candidates(self, current: int, destination: int) -> Tuple[int, ...]:
        """Legal next hops from ``current`` toward ``destination``."""
        return self[destination][current]

    def __missing__(self, destination: int) -> List[Tuple[int, ...]]:
        """Every node's candidates toward ``destination``: one row per node,
        read only where no earlier column touched it."""
        nodes = np.arange(self.n, dtype=np.int64)
        classes = self._sign_class(nodes, np.full_like(nodes, destination))
        rows = (nodes * self._classes + classes).tolist()
        cache = self._rows
        cache[rows[destination]] = ()  # offset zero: no candidates
        # One row per node, so a column never names a row twice.
        missing = [node for node, row in enumerate(rows) if row not in cache]
        if missing:
            chan, deg = self._read(nodes[missing], classes[missing])
            cache.update((rows[node], tuple(row[:d])) for node, row, d in zip(
                missing, self.channel_target[chan].tolist(), deg.tolist()))
        column = self[destination] = list(map(cache.__getitem__, rows))
        return column

    def lookup(self, pos: np.ndarray,
               dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (candidate channel matrix, degree) for a cohort's
        positions; ``channel_target`` maps the channels to next hops."""
        return self._read(pos, self._sign_class(pos, dst))
