"""Dimension-order (deterministic) routing: XY on meshes, e-cube on hypercubes.

The packet corrects dimensions strictly in axis order (axis 0 first by
default). On a 2-D mesh with coordinates (row, column) and ``axis_order
(1, 0)`` this is exactly the paper's XY routing — "forwards packets along
rows first and then along columns later; just one turn is allowed"
(paper §3, Figure 2(a)). On hypercubes it is e-cube routing.

Being deterministic, it returns at most one candidate, and a failed link on
that unique path makes the packet unroutable — the Figure 2(b) failure mode.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import RoutingError
from repro.routing.base import PROFITABLE, ClosedForm, RouteState, Router
from repro.topology.base import Topology

__all__ = ["DimensionOrderRouter"]


class DimensionOrderRouter(Router):
    """Deterministic dimension-order routing.

    Parameters
    ----------
    axis_order:
        Permutation of axis indices giving correction priority. Default is
        natural order (0, 1, ..., n-1). For the paper's XY convention on a
        (row, col) mesh — move along the row (i.e. change column) first —
        pass ``axis_order=(1, 0)``.
    """

    is_deterministic = True

    def __init__(self, axis_order: Optional[Sequence[int]] = None):
        self.axis_order = tuple(axis_order) if axis_order is not None else None
        self.name = "dimension-order" if axis_order is None else f"dimension-order{self.axis_order}"

    def validate(self, topology: Topology) -> None:
        super().validate(topology)
        n = len(topology.dims)
        if self.axis_order is not None and sorted(self.axis_order) != list(range(n)):
            raise RoutingError(
                f"axis_order {self.axis_order} is not a permutation of 0..{n - 1}"
            )

    def candidates(self, topology: Topology, current: int,
                   state: RouteState) -> Tuple[int, ...]:
        vector = topology.distance_vector(current, state.destination)
        order = self.axis_order if self.axis_order is not None else range(len(vector))
        for axis in order:
            component = vector[axis]
            if component == 0:
                continue
            direction = 1 if component > 0 else -1
            nxt = topology.step(current, axis, direction)
            if nxt is None or not topology.links.is_up(current, nxt):
                return ()  # the unique DOR hop is unavailable: blocked
            return (nxt,)
        return ()  # already at destination; walk_route never asks in this case

    def closed_form(self, topology: Topology) -> ClosedForm:
        """One phase per axis in order; the first with a profitable move is
        the only one, so a dead unique hop blocks."""
        order = self.axis_order if self.axis_order is not None else range(len(topology.dims))
        return ClosedForm(tuple(((axis, -1), (axis, 1)) for axis in order), PROFITABLE)
