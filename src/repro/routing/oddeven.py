"""Odd-even turn-model routing (Chiu, 2000) for 2-D meshes.

The third classic turn model after west-first and north-last: turns are
prohibited by *column parity* rather than by direction — EN/ES turns are
forbidden in even columns, NW/SW turns in odd columns. Compared with
west-first, the adaptivity is spread more evenly over source/destination
pairs, making odd-even a stronger stressor for path-based marking schemes.

This is Chiu's minimal ROUTE function verbatim; it needs the packet's
*source column* (vertical moves are additionally allowed in the source's
own column), which is captured in the route state's scratch on the first
invocation.

Included as an extension beyond the paper's three routing examples.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import RoutingError
from repro.routing.base import RouteState, Router
from repro.topology.base import Topology
from repro.topology.mesh import Mesh

__all__ = ["OddEvenRouter"]

ROW, COL = 0, 1
_SRC_COL_KEY = "oddeven_source_col"


class OddEvenRouter(Router):
    """Minimal odd-even adaptive routing on a 2-D mesh."""

    def __init__(self):
        self.name = "odd-even"

    def validate(self, topology: Topology) -> None:
        if not isinstance(topology, Mesh) or len(topology.dims) != 2:
            raise RoutingError(
                f"odd-even routing is defined on 2-D meshes only, got {topology!r}"
            )

    def candidates(self, topology: Topology, current: int,
                   state: RouteState) -> Tuple[int, ...]:
        cur = topology.coord(current)
        dst = topology.coord(state.destination)
        if _SRC_COL_KEY not in state.scratch:
            # First routing decision happens at the source switch.
            state.scratch[_SRC_COL_KEY] = cur[COL]
        src_col = state.scratch[_SRC_COL_KEY]

        e_col = dst[COL] - cur[COL]
        e_row = dst[ROW] - cur[ROW]
        out: List[int] = []

        def live(axis: int, direction: int) -> None:
            nxt = topology.step(current, axis, direction)
            if nxt is not None and topology.links.is_up(current, nxt):
                out.append(nxt)

        if e_col == 0:
            # Column aligned: pure vertical correction.
            if e_row != 0:
                live(ROW, 1 if e_row > 0 else -1)
            return tuple(out)

        if e_col > 0:  # eastbound
            if e_row == 0:
                live(COL, +1)
            else:
                # EN/ES turns only in odd columns (or still in the source
                # column, where the packet has not yet turned from east).
                if cur[COL] % 2 == 1 or cur[COL] == src_col:
                    live(ROW, 1 if e_row > 0 else -1)
                # Continuing east is illegal only when the destination
                # column is even and exactly one hop away (the last chance
                # to turn would fall in an even column, which is forbidden).
                if dst[COL] % 2 == 1 or e_col != 1:
                    live(COL, +1)
        else:  # westbound
            live(COL, -1)
            # NW/SW turns are forbidden in odd columns, so vertical moves
            # while heading west are taken in even columns only.
            if e_row != 0 and cur[COL] % 2 == 0:
                live(ROW, 1 if e_row > 0 else -1)
        return tuple(out)
