"""n-dimensional mesh (paper §3, Figure 1(a)).

Nodes X and Y are neighbors iff their coordinates agree in all dimensions but
one, where they differ by exactly 1 — no wraparound. Degree is 2n for
interior nodes; diameter is the sum of (k_i - 1).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology import coords as C
from repro.topology.base import Topology
from repro.util.validation import check_sequence_of_positive_ints

__all__ = ["Mesh"]


class Mesh(Topology):
    """k_0 x k_1 x ... x k_{n-1} mesh."""

    kind = "mesh"
    wraps = False

    def __init__(self, dims: Sequence[int]):
        dims = check_sequence_of_positive_ints(dims, "dims")
        super().__init__(dims)

    # -- metrics ---------------------------------------------------------
    def degree(self) -> int:
        """2 per dimension with at least 3 nodes, 1 per 2-node dimension."""
        return sum(2 if k >= 3 else (1 if k == 2 else 0) for k in self.dims)

    def diameter(self) -> int:
        """Corner-to-opposite-corner Manhattan distance."""
        return sum(k - 1 for k in self.dims)

    def min_hops(self, src: int, dst: int) -> int:
        total = 0
        for x, y in zip(self.coord(src), self.coord(dst)):
            total += x - y if x >= y else y - x
        return total

    # -- offset algebra ---------------------------------------------------
    def distance_vector(self, src: int, dst: int) -> Tuple[int, ...]:
        """Plain coordinate difference dst - src (paper §5: v_i = y_i - x_i)."""
        return C.vector_sub(self.coord(dst), self.coord(src))

    def offset_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        coords = self.coord_array().T
        return (coords.take(dst, axis=1) - coords.take(src, axis=1)).T

    def hop_delta(self, u: int, v: int) -> Tuple[int, ...]:
        delta = C.vector_sub(self.coord(v), self.coord(u))
        if C.manhattan(delta) != 1:
            raise TopologyError(f"{u} -> {v} is not a single mesh hop (delta {delta})")
        return delta

    def combine_offsets(self, accumulated: Sequence[int], delta: Sequence[int]) -> Tuple[int, ...]:
        return C.vector_add(accumulated, delta)

    def resolve_source(self, dst: int, offset: Sequence[int]) -> int:
        """S = D - V (paper Figure 4: S := X - V at the destination X = D)."""
        src_coord = C.vector_sub(self.coord(dst), offset)
        for c, k in zip(src_coord, self.dims):
            if not 0 <= c < k:
                raise TopologyError(
                    f"offset {tuple(offset)} from node {dst} leaves the mesh: {src_coord}"
                )
        return self.index(src_coord)
