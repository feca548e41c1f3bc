"""n-cube hypercube (paper §3, Figure 1(c)).

An n-dimensional mesh with k_i = 2 for every dimension: nodes are n-bit
labels, neighbors differ in exactly one bit, degree and diameter are both n.

Offset algebra: a hop toggles one coordinate, so the accumulated offset is
the XOR of per-hop one-hot vectors (paper §5: "it uses XOR rather than
addition and subtraction"), and the victim recovers the source as
S = D XOR V.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.util.bitops import hamming_distance
from repro.util.validation import check_positive_int

__all__ = ["Hypercube"]


class Hypercube(Topology):
    """2^n-node binary hypercube."""

    kind = "hypercube"

    def __init__(self, n: int):
        n = check_positive_int(n, "n")
        self.n = n
        super().__init__((2,) * n)

    # -- addressing helpers ----------------------------------------------
    # With dims == (2,)*n and lexicographic indexing, a node's index *is* its
    # n-bit label with coordinate 0 as the most significant bit; bit math on
    # indices is therefore exact and fast.
    def bit_of(self, node: int, axis: int) -> int:
        """Value of coordinate ``axis`` (0 = most significant) of ``node``."""
        if not 0 <= axis < self.n:
            raise TopologyError(f"axis {axis} out of range for {self.n}-cube")
        return (node >> (self.n - 1 - axis)) & 1

    # -- metrics ---------------------------------------------------------
    def degree(self) -> int:
        return self.n

    def diameter(self) -> int:
        return self.n

    def min_hops(self, src: int, dst: int) -> int:
        return hamming_distance(src, dst)

    # -- offset algebra ---------------------------------------------------
    def distance_vector(self, src: int, dst: int) -> Tuple[int, ...]:
        """Per-dimension XOR: d_i = 1 iff src and dst differ in dimension i."""
        xor = src ^ dst
        if not (self.contains(src) and self.contains(dst)):
            raise TopologyError(f"nodes ({src}, {dst}) outside {self.n}-cube")
        return tuple((xor >> (self.n - 1 - axis)) & 1 for axis in range(self.n))

    def offset_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        coords = self.coord_array().T
        return (coords.take(dst, axis=1) ^ coords.take(src, axis=1)).T

    def hop_delta(self, u: int, v: int) -> Tuple[int, ...]:
        xor = u ^ v
        if xor == 0 or (xor & (xor - 1)) != 0:
            raise TopologyError(f"{u} -> {v} is not a single hypercube hop")
        return tuple((xor >> (self.n - 1 - axis)) & 1 for axis in range(self.n))

    def combine_offsets(self, accumulated: Sequence[int], delta: Sequence[int]) -> Tuple[int, ...]:
        if len(accumulated) != self.n or len(delta) != self.n:
            raise TopologyError("offset arity mismatch")
        return tuple(a ^ d for a, d in zip(accumulated, delta))

    def resolve_source(self, dst: int, offset: Sequence[int]) -> int:
        """S = D XOR V (paper §5 hypercube walkthrough)."""
        if len(offset) != self.n:
            raise TopologyError(f"offset arity {len(offset)} != {self.n}")
        if any(b not in (0, 1) for b in offset):
            raise TopologyError(f"hypercube offsets are bit vectors, got {tuple(offset)}")
        word = 0
        for b in offset:
            word = (word << 1) | b
        return dst ^ word
