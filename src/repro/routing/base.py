"""Router interface, per-packet route state, and the hop-by-hop walker.

``walk_route`` is the library's lightweight path simulator: it moves a
virtual packet hop by hop through (router, selection policy) without the
discrete-event fabric. Marking-scheme unit tests, the Figure 2/3 benchmarks,
and the analytical experiments all use it; the full fabric
(:mod:`repro.network`) uses the same router objects, so behavior matches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import LivelockError, RoutingError, UnroutablePacketError
from repro.topology.base import Topology

__all__ = ["RouteState", "Router", "ClosedForm", "PROFITABLE", "LIVE",
           "minimal_form", "walk_route"]

#: topology kinds with a coordinate system, the only ones the offset-driven
#: routers run on (coordinate-free ones route with TableRouter)
COORDINATE_KINDS = ("mesh", "torus", "hypercube")

#: closed-form gates: the first phase holding a profitable move, or the
#: first phase holding a live one
PROFITABLE, LIVE = "profitable", "live"


class ClosedForm(NamedTuple):
    """A router's candidates as a function of the minimal offset's signs.

    ``phases`` are ordered tuples of (axis, sign) moves. A move is
    *profitable* when the offset's sign on its axis equals the move's sign
    (on a hypercube the XOR offset is 0 or 1, so only +1 moves are), and
    *live* when it is profitable and its link exists and is up. ``gate``
    picks one phase: the first with a profitable move (:data:`PROFITABLE`)
    or the first with a live one (:data:`LIVE`). The candidates are that
    phase's live moves in order; none when no phase qualifies.
    """

    phases: Tuple[Tuple[Tuple[int, int], ...], ...]
    gate: str


def minimal_form(topology: Topology) -> ClosedForm:
    """The closed form of :meth:`Router.minimal_candidates`: one phase of
    every move, axes ascending (at most one per axis is profitable)."""
    return ClosedForm((tuple((axis, sign) for axis in range(len(topology.dims))
                             for sign in (-1, 1)),), LIVE)


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
        Count of non-profitable hops taken so far. Counted only for a
        router that can misroute (:attr:`Router.allows_misrouting`) and is
        asked live: every candidate a route table holds is profitable by
        construction, and a router that cannot misroute never reads the
        count (its only reader is the misroute budget).
    misroute_budget:
        Maximum allowed misroutes; exceeding it is a livelock condition.
    scratch:
        Free-form dict for router-specific state (e.g. Valiant's intermediate).
    """

    __slots__ = ("destination", "last_node", "misroutes", "misroute_budget",
                 "scratch")

    def __init__(self, destination: int, misroute_budget: int = 0):
        self.destination = destination
        self.last_node: Optional[int] = None
        self.misroutes = 0
        self.misroute_budget = misroute_budget
        self.scratch: Dict[str, object] = {}

    def note_hop(self, from_node: int, profitable: bool) -> None:
        """Record a departed hop: remembers the node, counts misroutes."""
        self.last_node = from_node
        if not profitable:
            self.misroutes += 1

    def __repr__(self) -> str:  # pragma: no cover
        return (f"RouteState(dest={self.destination}, last={self.last_node}, "
                f"misroutes={self.misroutes}/{self.misroute_budget})")


class Router(ABC):
    """A routing function: legal next hops for a packet at a node."""

    #: human-readable algorithm name
    name: str = "abstract"
    #: True when candidates() always returns at most one node
    is_deterministic: bool = False
    #: True when the router may propose non-profitable (misroute) hops;
    #: only then are a packet's hops tested and its misroutes counted
    allows_misrouting: bool = False

    @abstractmethod
    def candidates(self, topology: Topology, current: int,
                   state: RouteState) -> Tuple[int, ...]:
        """Legal live next-hop nodes, in deterministic preference order.

        Empty means the packet is blocked (for deterministic algorithms on a
        failed link this is terminal — paper Figure 2(b) for XY routing).
        """

    def closed_form(self, topology: Topology) -> Optional[ClosedForm]:
        """:meth:`candidates` on ``topology``'s current link state as a
        :class:`ClosedForm`, or None when they read more than (node,
        destination) — the last node, the misroute count, scratch state.

        A router with a closed form is table-driven: every engine reads its
        candidates from one :class:`repro.routing.plan.RouteTable` per
        (router, topology, link version). Default: None, asked live.
        """
        return None

    def validate(self, topology: Topology) -> None:
        """Raise :class:`RoutingError` if this router cannot run on ``topology``.

        Default: meshes, tori and hypercubes are accepted; topologies
        without coordinates route with :class:`~repro.routing.TableRouter`.
        """
        if topology.kind not in COORDINATE_KINDS:
            raise RoutingError(f"{self.name} routing needs a mesh, torus or hypercube, "
                               f"got {topology!r}; use TableRouter")

    def minimal_candidates(self, topology: Topology, current: int,
                           state: RouteState) -> Tuple[int, ...]:
        """Live neighbors that strictly reduce distance to the destination.

        Shared helper: per axis with a nonzero minimal-offset component, the
        single profitable step along that axis (both wrap directions can be
        profitable only at exact torus antipodes, where the tie resolves to
        the positive direction — consistent with ``distance_vector``).

        The reference that :func:`minimal_form`, as the route table
        (:mod:`repro.routing.plan`) evaluates it, is tested against.
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
    from repro.routing.plan import route_table

    router.validate(topology)
    state = RouteState(dst, misroute_budget=misroute_budget)
    path = [src]
    current = src
    for _ in range(max_hops):
        table = route_table(router, topology)
        if table is None:
            options = router.candidates(topology, current, state)
        else:
            options = table.candidates(current, dst)
        if not options:
            raise UnroutablePacketError(
                f"{router.name} has no legal hop from {current} "
                f"(coord {topology.coord(current)}) toward {dst}",
                current=current, destination=dst,
            )
        nxt = select(options, current)
        if nxt not in options:
            raise RoutingError(f"selection returned {nxt}, not among candidates {options}")
        # Profitability is tested only where a misroute can happen (see
        # RouteState.misroutes).
        state.note_hop(current, table is not None or not router.allows_misrouting
                       or topology.min_hops(nxt, dst) < topology.min_hops(current, dst))
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
