"""Minimal and fully adaptive routing.

*Minimal adaptive*: every live profitable hop (one per axis still carrying
offset) is legal. Path diversity under this router is already enough to
scramble PPM/DPM path signatures (paper §4).

*Fully adaptive*: profitable hops preferred; when none is live the router
falls back to misrouting over any live link (except an immediate
backtrack, unless that is the only escape), bounded by the packet's
misroute budget — the livelock-avoidance scheme the paper's §4.1 alludes to.
This is the router that survives the Figure 2(c) fault pattern.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.routing.base import RouteState, Router
from repro.topology.base import Topology

__all__ = ["MinimalAdaptiveRouter", "FullyAdaptiveRouter"]


class MinimalAdaptiveRouter(Router):
    """All live profitable next hops are candidates; never misroutes."""

    allows_misrouting = False
    # Profitable hops depend only on (node, destination): table-driven.
    is_stateless = True

    def __init__(self):
        self.name = "minimal-adaptive"

    def candidates(self, topology: Topology, current: int,
                   state: RouteState) -> Tuple[int, ...]:
        return self.minimal_candidates(topology, current, state)


class FullyAdaptiveRouter(Router):
    """Profitable hops first; misroute fallback with a per-packet budget.

    Parameters
    ----------
    prefer_minimal:
        When True (default), misroute candidates are offered only when no
        profitable hop is live. When False, profitable and misroute hops are
        pooled — maximally adaptive, maximally path-diverse (useful to stress
        marking schemes).
    """

    allows_misrouting = True

    def __init__(self, prefer_minimal: bool = True):
        self.prefer_minimal = prefer_minimal
        self.name = "fully-adaptive" if prefer_minimal else "fully-adaptive-pooled"

    def candidates(self, topology: Topology, current: int,
                   state: RouteState) -> Tuple[int, ...]:
        profitable = self.minimal_candidates(topology, current, state)
        if profitable and self.prefer_minimal:
            return profitable

        misroutes: Tuple[int, ...] = ()
        if state.misroutes < state.misroute_budget:
            profitable_set = set(profitable)
            others: List[int] = [
                v for v in topology.neighbors(current)
                if v not in profitable_set and v != state.last_node
            ]
            if not others and not profitable:
                # Dead end: backtracking is the only escape.
                others = [v for v in topology.neighbors(current) if v not in profitable_set]
            misroutes = tuple(others)

        return tuple(profitable) + misroutes
