"""Turn-model partially adaptive routing (Glass & Ni) on 2-D meshes.

The paper's Figure 2(b) uses *west-first* routing: a packet that must travel
west does all its west hops first (deterministically), after which it routes
adaptively among the remaining profitable directions (east, north, south).
The prohibited turns are the two into the west direction, which breaks every
cycle in the channel-dependency graph — and is exactly why Figure 2(c)'s
fault pattern (which forces a final turn *to* the west) defeats it.

``NorthLastRouter`` and ``NegativeFirstRouter`` are the other two canonical
turn models; negative-first generalizes to n-dimensional meshes.

Coordinate convention (matches the paper's figures): a 2-D mesh coordinate is
(row, col); *west* decreases col, *east* increases col, *north* decreases
row, *south* increases row.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import RoutingError
from repro.routing.base import RouteState, Router
from repro.topology.base import Topology
from repro.topology.mesh import Mesh

__all__ = ["WestFirstRouter", "NorthLastRouter", "NegativeFirstRouter"]

ROW, COL = 0, 1


def _require_2d_mesh(topology: Topology, name: str) -> None:
    if not isinstance(topology, Mesh) or len(topology.dims) != 2:
        raise RoutingError(f"{name} routing is defined on 2-D meshes only, got {topology!r}")


def _live_step(topology: Topology, current: int, axis: int, direction: int):
    nxt = topology.step(current, axis, direction)
    if nxt is not None and topology.links.is_up(current, nxt):
        return nxt
    return None


class WestFirstRouter(Router):
    """West-first partially adaptive routing on a 2-D mesh.

    Minimal form: while the destination lies west (dcol < 0) the only legal
    hop is west; afterwards the packet picks adaptively among the profitable
    east/north/south moves. With ``minimal=False`` the adaptive phase may
    also misroute east/north/south (never west) when no profitable hop is
    live, bounded by the packet's misroute budget.
    """

    allows_misrouting = False

    def __init__(self, minimal: bool = True):
        self.minimal = minimal
        self.allows_misrouting = not minimal
        # The non-minimal variant's misroute branch reads last_node/misroutes
        # from RouteState, so only the minimal form is table-driven.
        self.is_stateless = minimal
        self.name = "west-first" if minimal else "west-first-nonminimal"

    def validate(self, topology: Topology) -> None:
        _require_2d_mesh(topology, "west-first")

    def candidates(self, topology: Topology, current: int,
                   state: RouteState) -> Tuple[int, ...]:
        cur = topology.coord(current)
        dst = topology.coord(state.destination)
        drow, dcol = dst[ROW] - cur[ROW], dst[COL] - cur[COL]

        if dcol < 0:
            # Must finish all west hops first; no adaptivity in this phase.
            west = _live_step(topology, current, COL, -1)
            return (west,) if west is not None else ()

        profitable: List[int] = []
        if dcol > 0:
            east = _live_step(topology, current, COL, +1)
            if east is not None:
                profitable.append(east)
        if drow > 0:
            south = _live_step(topology, current, ROW, +1)
            if south is not None:
                profitable.append(south)
        if drow < 0:
            north = _live_step(topology, current, ROW, -1)
            if north is not None:
                profitable.append(north)
        if profitable:
            return tuple(profitable)

        if not self.minimal and state.misroutes < state.misroute_budget:
            # Misroute anywhere except west (prohibited) and the node we
            # just left (avoid trivial ping-pong livelock).
            out = []
            for axis, direction in ((COL, +1), (ROW, +1), (ROW, -1)):
                nxt = _live_step(topology, current, axis, direction)
                if nxt is not None and nxt != state.last_node:
                    out.append(nxt)
            return tuple(out)
        return ()


class NorthLastRouter(Router):
    """North-last partially adaptive routing on a 2-D mesh.

    North hops (row decreasing) are deferred until no other productive move
    remains; once the packet starts moving north it may not turn again.
    Prohibited turns are the two *out of* the north direction.
    """

    is_stateless = True

    def __init__(self):
        self.name = "north-last"

    def validate(self, topology: Topology) -> None:
        _require_2d_mesh(topology, "north-last")

    def candidates(self, topology: Topology, current: int,
                   state: RouteState) -> Tuple[int, ...]:
        cur = topology.coord(current)
        dst = topology.coord(state.destination)
        drow, dcol = dst[ROW] - cur[ROW], dst[COL] - cur[COL]

        non_north: List[int] = []
        if dcol > 0:
            east = _live_step(topology, current, COL, +1)
            if east is not None:
                non_north.append(east)
        if dcol < 0:
            west = _live_step(topology, current, COL, -1)
            if west is not None:
                non_north.append(west)
        if drow > 0:
            south = _live_step(topology, current, ROW, +1)
            if south is not None:
                non_north.append(south)
        if non_north:
            return tuple(non_north)
        if drow < 0:
            # Only north remains: the final, unturnable leg.
            north = _live_step(topology, current, ROW, -1)
            return (north,) if north is not None else ()
        return ()


class NegativeFirstRouter(Router):
    """Negative-first partially adaptive routing on an n-dimensional mesh.

    All hops in negative axis directions happen before any positive hop
    (adaptively among the negative ones), then adaptively among positive
    hops. Works on meshes of any dimensionality.
    """

    is_stateless = True

    def __init__(self):
        self.name = "negative-first"

    def validate(self, topology: Topology) -> None:
        if not isinstance(topology, Mesh):
            raise RoutingError(f"negative-first routing requires a mesh, got {topology!r}")

    def candidates(self, topology: Topology, current: int,
                   state: RouteState) -> Tuple[int, ...]:
        vector = topology.distance_vector(current, state.destination)
        negative: List[int] = []
        positive: List[int] = []
        for axis, component in enumerate(vector):
            if component < 0:
                nxt = _live_step(topology, current, axis, -1)
                if nxt is not None:
                    negative.append(nxt)
            elif component > 0:
                nxt = _live_step(topology, current, axis, +1)
                if nxt is not None:
                    positive.append(nxt)
        if negative:
            return tuple(negative)
        return tuple(positive)
