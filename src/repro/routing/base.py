"""Router interface, per-packet route state, and the hop-by-hop walker.

``walk_route`` is the library's lightweight path simulator: it moves a
virtual packet hop by hop through (router, selection policy) without the
discrete-event fabric. Marking-scheme unit tests, the Figure 2/3 benchmarks,
and the analytical experiments all use it; the full fabric
(:mod:`repro.network`) uses the same router objects, so behavior matches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import LivelockError, RoutingError, UnroutablePacketError
from repro.topology.base import Topology

__all__ = ["RouteState", "Router", "walk_route"]


class RouteState:
    """Mutable per-packet routing state carried across hops.

    Attributes
    ----------
    destination:
        Target node index.
    last_node:
        Node the packet most recently departed (None at injection); adaptive
        routers use it to discourage immediate backtracking.
    misroutes:
        Count of non-profitable hops taken so far.
    misroute_budget:
        Maximum allowed misroutes; exceeding it is a livelock condition.
    distance_to_go:
        Minimal hops from the packet's *current* position to the destination,
        threaded hop to hop by the forwarding path so each switch performs a
        single oracle lookup instead of re-deriving both endpoints' distances
        (None until the first hop is taken).
    scratch:
        Free-form dict for router-specific state (e.g. Valiant's intermediate).
    """

    __slots__ = ("destination", "last_node", "misroutes", "misroute_budget",
                 "distance_to_go", "scratch")

    def __init__(self, destination: int, misroute_budget: int = 0):
        self.destination = destination
        self.last_node: Optional[int] = None
        self.misroutes = 0
        self.misroute_budget = misroute_budget
        self.distance_to_go: Optional[int] = None
        self.scratch: Dict[str, object] = {}

    def note_hop(self, from_node: int, profitable: bool,
                 distance_to_go: Optional[int] = None) -> None:
        """Record a departed hop: remembers the node, counts misroutes.

        ``distance_to_go`` is the already-known distance from the hop's
        *target* to the destination; the next switch reads it back instead of
        asking the oracle about its own position.
        """
        self.last_node = from_node
        if not profitable:
            self.misroutes += 1
        self.distance_to_go = distance_to_go

    def __repr__(self) -> str:  # pragma: no cover
        return (f"RouteState(dest={self.destination}, last={self.last_node}, "
                f"misroutes={self.misroutes}/{self.misroute_budget})")


class Router(ABC):
    """A routing function: legal next hops for a packet at a node."""

    #: human-readable algorithm name
    name: str = "abstract"
    #: True when candidates() always returns at most one node
    is_deterministic: bool = False
    #: True when the router may propose non-profitable (misroute) hops
    allows_misrouting: bool = False
    #: True when candidates() depends only on (topology, current node,
    #: destination) — never on last_node, misroutes, or scratch. Stateless
    #: routers are table-driven: every engine reads their candidates from
    #: one :class:`repro.routing.plan.RouteTable` per (router, topology,
    #: link version), rebuilt when fail_link/restore_link bump the version.
    is_stateless: bool = False

    @abstractmethod
    def candidates(self, topology: Topology, current: int,
                   state: RouteState) -> Tuple[int, ...]:
        """Legal live next-hop nodes, in deterministic preference order.

        Empty means the packet is blocked (for deterministic algorithms on a
        failed link this is terminal — paper Figure 2(b) for XY routing).
        """

    def validate(self, topology: Topology) -> None:
        """Raise :class:`RoutingError` if this router cannot run on ``topology``.

        Default: any topology with a coordinate system is accepted.
        """

    def minimal_candidates(self, topology: Topology, current: int,
                           state: RouteState) -> Tuple[int, ...]:
        """Live neighbors that strictly reduce distance to the destination.

        Shared helper: per axis with a nonzero minimal-offset component, the
        single profitable step along that axis (both wrap directions can be
        profitable only at exact torus antipodes, where the tie resolves to
        the positive direction — consistent with ``distance_vector``).

        The reference that the route table's closed-form bulk fill
        (:mod:`repro.routing.plan`) is tested against.
        """
        vector = topology.distance_vector(current, state.destination)
        out: List[int] = []
        for axis, component in enumerate(vector):
            if component == 0:
                continue
            direction = 1 if component > 0 else -1
            nxt = topology.step(current, axis, direction)
            if nxt is not None and topology.links.is_up(current, nxt):
                out.append(nxt)
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


def walk_route(topology: Topology, router: Router, src: int, dst: int,
               select: Callable[[Tuple[int, ...], int], int],
               on_hop: Optional[Callable[[int, int], None]] = None,
               misroute_budget: int = 0,
               max_hops: Optional[int] = None) -> List[int]:
    """Walk a packet from ``src`` to ``dst``; returns the node path including both ends.

    Parameters
    ----------
    select:
        Callable (candidates, current) -> chosen next hop. Use a
        :class:`repro.routing.selection.SelectionPolicy` bound via
        ``policy.binder(...)`` or any custom function.
    on_hop:
        Optional callback (from_node, to_node) fired per hop — exactly where
        a switch would apply its marking operation.
    misroute_budget:
        Allowed non-profitable hops before :class:`LivelockError`.
    max_hops:
        Hard cap on path length (defaults to ``4 * diameter + 16``).

    Raises
    ------
    UnroutablePacketError
        When the router returns no candidates.
    LivelockError
        When the walk exceeds ``max_hops``.
    """
    if src == dst:
        return [src]
    if max_hops is None:
        max_hops = 4 * topology.diameter() + 16
    # Imported here: the route table imports the routers, which import
    # this module.
    from repro.routing.plan import next_hops

    router.validate(topology)
    oracle = topology.distance_oracle()
    state = RouteState(dst, misroute_budget=misroute_budget)
    path = [src]
    current = src
    current_dist = oracle.distance(src, dst)
    for _ in range(max_hops):
        options = next_hops(router, topology, current, state)
        if not options:
            raise UnroutablePacketError(
                f"{router.name} has no legal hop from {current} "
                f"(coord {topology.coord(current)}) toward {dst}",
                current=current, destination=dst,
            )
        nxt = select(options, current)
        if nxt not in options:
            raise RoutingError(f"selection returned {nxt}, not among candidates {options}")
        next_dist = oracle.distance(nxt, dst)
        state.note_hop(current, next_dist < current_dist, next_dist)
        current_dist = next_dist
        if on_hop is not None:
            on_hop(current, nxt)
        path.append(nxt)
        current = nxt
        if current == dst:
            return path
    raise LivelockError(
        f"{router.name} exceeded {max_hops} hops from {src} to {dst}; "
        f"misroutes={state.misroutes}"
    )
