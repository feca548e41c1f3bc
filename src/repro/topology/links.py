"""Link bookkeeping with failure injection.

The paper's routing discussion (Figure 2) revolves around failed links:
deterministic XY routing cannot route around them, west-first can for some
fault patterns, fully adaptive for more. :class:`LinkSet` tracks which
bidirectional links are failed and validates failure/restore operations
against the topology's physical links. The links themselves are the
topology's neighbour tuples; the set of them is built only when read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Set, Tuple

from repro.errors import TopologyError

if TYPE_CHECKING:
    from repro.topology.base import Topology

__all__ = ["LinkSet", "canonical_link"]

Link = Tuple[int, int]


def canonical_link(u: int, v: int) -> Link:
    """Order-independent key for a bidirectional link."""
    if u == v:
        raise TopologyError(f"self-link ({u}, {v}) is not a physical link")
    return (u, v) if u < v else (v, u)


class LinkSet:
    """The failure state of one topology's bidirectional links."""

    def __init__(self, topology: "Topology"):
        self._topology = topology
        #: the topology's per-node neighbour tuples, as filled so far: the
        #: hot :meth:`is_up` reads them without a call
        self._physical: Dict[int, Tuple[int, ...]] = topology._neighbor_cache
        self._failed: Set[Link] = set()
        #: monotonically increasing change counter; bumped by every fail/
        #: restore so caches keyed on link state (route tables, the fabric's
        #: route column) can detect staleness with one int comparison.
        self.version = 0

    # -- queries --------------------------------------------------------
    def exists(self, u: int, v: int) -> bool:
        """True when (u, v) is a physical link (failed or not)."""
        return (self._topology.contains(u)
                and v in self._topology.neighbors(u, include_failed=True))

    def is_up(self, u: int, v: int) -> bool:
        """True when (u, v) exists and has not been failed."""
        physical = self._physical.get(u)
        if physical is None:
            physical = self._topology.neighbors(u, include_failed=True)
        if v not in physical:
            return False
        failed = self._failed
        return not failed or ((u, v) if u < v else (v, u)) not in failed

    def live(self, u: int, physical: Tuple[int, ...]) -> Tuple[int, ...]:
        """The neighbours ``physical`` of ``u`` whose links are up."""
        failed = self._failed
        if not failed:
            return physical
        return tuple(v for v in physical if ((u, v) if u < v else (v, u)) not in failed)

    @property
    def all_links(self) -> FrozenSet[Link]:
        """Every physical link, as canonical (min, max) pairs."""
        topology = self._topology
        return frozenset((u, v) for u in topology.nodes()
                         for v in topology.neighbors(u, include_failed=True) if u < v)

    @property
    def failed_links(self) -> FrozenSet[Link]:
        """Currently failed links."""
        return frozenset(self._failed)

    def live_links(self) -> FrozenSet[Link]:
        """Links currently up."""
        return self.all_links - self._failed

    def __len__(self) -> int:
        return len(self.all_links)

    # -- mutation -------------------------------------------------------
    def fail(self, u: int, v: int) -> None:
        """Mark link (u, v) failed. Raises if the link does not exist."""
        key = canonical_link(u, v)
        if not self.exists(u, v):
            raise TopologyError(f"cannot fail nonexistent link {key}")
        self._failed.add(key)
        self.version += 1

    def restore(self, u: int, v: int) -> None:
        """Bring a failed link back up. Raises if it was not failed."""
        key = canonical_link(u, v)
        if key not in self._failed:
            raise TopologyError(f"link {key} is not failed")
        self._failed.remove(key)
        self.version += 1

    def restore_all(self) -> None:
        """Clear every failure."""
        self._failed.clear()
        self.version += 1
