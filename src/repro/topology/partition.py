"""Deterministic topology partitioning for the sharded fabric engine.

A :class:`Partition` maps every node to one of ``k`` shards. The sharded
engine owns each directed channel at its *source* node's shard, so all
contenders for a channel live in one shard and credit admission stays
shard-local; the cut edges are exactly the packet-migration surface, which
is why the partitioner minimizes them.

Two strategies, both pure functions of ``(topology, k)`` — no RNG, no
wall-clock, no dict-order dependence — so shard assignment is stable across
runs, hosts, and process counts (property-tested):

* **Coordinate slabs** (mesh/torus): cut the longest axis (ties break to the
  lowest axis index) into ``k`` contiguous bands of near-equal width. For a
  row-major layout this keeps each shard a contiguous node range and the cut
  proportional to the slab faces — the classic block decomposition.
* **BFS chop + greedy refinement** (everything else): order nodes by BFS
  from node 0 (deterministic neighbor order), chop the order into ``k``
  near-equal contiguous chunks, then run a bounded greedy pass moving nodes
  to the neighboring shard that reduces the cut while keeping shard sizes
  within one node of balanced — "min-cut-ish", not optimal, but local and
  deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.topology.base import Topology

__all__ = ["Partition", "partition_topology"]

#: bounded refinement: full sweeps over the node order per fallback build
_REFINE_SWEEPS = 2


class Partition:
    """An immutable node -> shard assignment plus its boundary structure."""

    def __init__(self, topology: Topology, k: int, shard_of: np.ndarray,
                 method: str):
        self.k = int(k)
        self.method = method
        self.shard_of = np.asarray(shard_of, dtype=np.int64)
        self.shard_of.setflags(write=False)
        self.num_nodes = topology.num_nodes
        # Cut edges in the topology's canonical (u, v), u < v edge order.
        edges = topology.to_edge_list()
        cut: List[Tuple[int, int]] = []
        for u, v in edges:  # per-edge, once at build
            if self.shard_of[u] != self.shard_of[v]:
                cut.append((u, v))
        self.cut_edges: Tuple[Tuple[int, int], ...] = tuple(cut)
        self.num_edges = len(edges)

    def nodes_of(self, shard: int) -> np.ndarray:
        """Ascending node ids assigned to ``shard``."""
        return np.flatnonzero(self.shard_of == shard)

    def shard_sizes(self) -> np.ndarray:
        """Node count per shard (length ``k``)."""
        return np.bincount(self.shard_of, minlength=self.k)

    def boundary_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Sorted unordered shard pairs (a, b), a < b, joined by >= 1 edge.

        One boundary queue pair per entry: every cut edge belongs to exactly
        one of these (property-tested), so cross-shard traffic never has two
        routes into a peer's inbox.
        """
        pairs = sorted({(min(int(self.shard_of[u]), int(self.shard_of[v])),
                         max(int(self.shard_of[u]), int(self.shard_of[v])))
                        for u, v in self.cut_edges})
        return tuple(pairs)

    def edges_between(self, a: int, b: int) -> Tuple[Tuple[int, int], ...]:
        """Cut edges joining shards ``a`` and ``b`` (unordered), edge order."""
        lo, hi = min(a, b), max(a, b)
        return tuple(
            (u, v) for u, v in self.cut_edges
            if (min(int(self.shard_of[u]), int(self.shard_of[v])),
                max(int(self.shard_of[u]), int(self.shard_of[v]))) == (lo, hi))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Partition(k={self.k}, method={self.method!r}, "
                f"cut={len(self.cut_edges)}/{self.num_edges})")


def _slab_partition(topology: Topology, k: int) -> np.ndarray:
    """Contiguous coordinate bands along the longest axis."""
    dims = list(topology.dims)
    axis = max(range(len(dims)), key=lambda i: (dims[i], -i))
    length = dims[axis]
    coords = topology.coord_array()
    # floor(c * k / length) spans 0..k-1 and is monotone in c, so bands are
    # contiguous and sized within one coordinate plane of each other.
    return (coords[:, axis] * k) // length


def _bfs_order(topology: Topology) -> List[int]:
    """Deterministic BFS order from node 0, unreached nodes appended in id
    order (disconnected topologies still partition)."""
    seen = [False] * topology.num_nodes
    order: List[int] = []
    queue: deque = deque([0])
    seen[0] = True
    while queue:
        node = queue.popleft()
        order.append(node)
        for neighbor in topology.neighbors(node):
            if not seen[neighbor]:
                seen[neighbor] = True
                queue.append(neighbor)
    for node in topology.nodes():
        if not seen[node]:
            order.append(node)
    return order


def _chop_partition(topology: Topology, k: int) -> np.ndarray:
    """BFS-order chop into k near-equal chunks + bounded greedy refinement."""
    n = topology.num_nodes
    order = _bfs_order(topology)
    shard_of = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, k)
    start = 0
    for shard in range(k):  # per-shard, once at build
        size = base + (1 if shard < extra else 0)
        for node in order[start:start + size]:
            shard_of[node] = shard
        start += size
    sizes = np.bincount(shard_of, minlength=k)
    floor = n // k
    ceil = floor + (1 if n % k else 0)
    for _ in range(_REFINE_SWEEPS):  # bounded sweeps, once at build
        moved = False
        for node in order:
            here = int(shard_of[node])
            if sizes[here] <= floor:
                continue  # moving would unbalance below the floor
            tally: Dict[int, int] = {}
            for neighbor in topology.neighbors(node):
                s = int(shard_of[neighbor])
                tally[s] = tally.get(s, 0) + 1
            gain_here = tally.get(here, 0)
            # Deterministic choice: best gain, ties to the lowest shard id.
            best, best_gain = here, gain_here
            for s in sorted(tally):
                if s == here or sizes[s] >= ceil:
                    continue
                if tally[s] > best_gain:
                    best, best_gain = s, tally[s]
            if best != here:
                shard_of[node] = best
                sizes[here] -= 1
                sizes[best] += 1
                moved = True
        if not moved:
            break
    return shard_of


def partition_topology(topology: Topology, k: int) -> Partition:
    """Partition ``topology`` into ``k`` shards (pure in (topology, k))."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ConfigurationError(f"shards must be an int, got {k!r}")
    n = topology.num_nodes
    if k < 1 or k > n:
        raise ConfigurationError(
            f"shards must be between 1 and num_nodes={n}, got {k}")
    if k == 1:
        return Partition(topology, 1, np.zeros(n, dtype=np.int64), "trivial")
    if topology.kind in ("mesh", "torus") and max(topology.dims) >= k:
        return Partition(topology, k, _slab_partition(topology, k), "slab")
    return Partition(topology, k, _chop_partition(topology, k), "bfs-chop")
