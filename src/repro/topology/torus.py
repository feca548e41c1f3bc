"""k-ary n-cube / torus (paper §3, Figure 1(b)).

A mesh with wraparound channels: X and Y are neighbors iff they agree in all
dimensions but one where x_i = (y_i +/- 1) mod k_i. Diameter per dimension is
floor(k_i / 2).

Offset algebra: per-hop deltas are +/-1 following the physical link direction
(a wrap hop from k-1 to 0 is +1), accumulated with plain integer addition; the
victim recovers the source per-dimension as s_i = (d_i - v_i) mod k_i. This
makes identification exact for *any* route, including non-minimal ones whose
accumulated component exceeds the minimal residue — the modular decode folds
it back (DESIGN.md decision #4).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology import coords as C
from repro.topology.base import Topology
from repro.util.validation import check_sequence_of_positive_ints

__all__ = ["Torus"]


class Torus(Topology):
    """k_0 x ... x k_{n-1} torus (k-ary n-cube when all k_i equal)."""

    kind = "torus"

    def __init__(self, dims: Sequence[int]):
        dims = check_sequence_of_positive_ints(dims, "dims")
        if any(k == 2 for k in dims):
            # A 2-ring's "two" directions are one physical link; modelling it
            # as a torus would double-count. Users should express k=2
            # dimensions with Mesh or Hypercube semantics instead.
            raise TopologyError(
                f"torus dimensions must be 1 or >= 3 (k=2 collapses both ring "
                f"directions onto one link), got {tuple(dims)}"
            )
        super().__init__(dims)

    # -- metrics ---------------------------------------------------------
    def degree(self) -> int:
        """2 links per ring dimension (k >= 3)."""
        return sum(2 for k in self.dims if k >= 3)

    def diameter(self) -> int:
        """Sum over dimensions of floor(k_i / 2) (paper §3)."""
        return sum(k // 2 for k in self.dims)

    def min_hops(self, src: int, dst: int) -> int:
        total = 0
        for x, y, k in zip(self.coord(src), self.coord(dst), self.dims):
            r = (y - x) % k
            total += k - r if r > k // 2 else r
        return total

    # -- offset algebra ---------------------------------------------------
    def distance_vector(self, src: int, dst: int) -> Tuple[int, ...]:
        """Minimal signed residues per dimension."""
        return C.torus_distance_vector(self.coord(src), self.coord(dst), self.dims)

    def offset_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Minimal signed residues per dimension, ties positive."""
        coords = self.coord_array().T
        dims = np.asarray(self.dims, dtype=np.int64)[:, None]
        offsets = (coords.take(dst, axis=1) - coords.take(src, axis=1)) % dims
        offsets -= (offsets > dims // 2) * dims
        return offsets.T

    def hop_delta(self, u: int, v: int) -> Tuple[int, ...]:
        cu, cv = self.coord(u), self.coord(v)
        delta = [0] * len(self.dims)
        changed = [axis for axis in range(len(self.dims)) if cu[axis] != cv[axis]]
        if len(changed) != 1:
            raise TopologyError(f"{u} -> {v} is not a single torus hop")
        axis = changed[0]
        delta[axis] = C.torus_hop_distance(cu[axis], cv[axis], self.dims[axis])
        return tuple(delta)

    def combine_offsets(self, accumulated: Sequence[int], delta: Sequence[int]) -> Tuple[int, ...]:
        return C.vector_add(accumulated, delta)

    def resolve_source(self, dst: int, offset: Sequence[int]) -> int:
        """s_i = (d_i - v_i) mod k_i."""
        dst_coord = self.coord(dst)
        if len(offset) != len(self.dims):
            raise TopologyError(f"offset arity {len(offset)} != {len(self.dims)} dims")
        src_coord = tuple((d - v) % k for d, v, k in zip(dst_coord, offset, self.dims))
        return self.index(src_coord)
