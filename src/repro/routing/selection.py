"""Output-selection policies: which of the legal next hops a switch takes.

Routing adaptivity only matters if the selection actually varies — a
least-congested or random selection is what makes "the route is not stable"
(paper §4.1 assumption 6) true in practice. Policies expose ``binder`` to
produce the plain ``(candidates, current) -> node`` callable that
:func:`repro.routing.base.walk_route` and the fabric consume.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RoutingError

__all__ = [
    "SelectionPolicy",
    "FirstCandidatePolicy",
    "RandomPolicy",
    "LeastCongestedPolicy",
]

CongestionFn = Callable[[int, int], float]


class SelectionPolicy(ABC):
    """Chooses one next hop from a non-empty candidate tuple."""

    name: str = "abstract"

    @abstractmethod
    def choose(self, candidates: Sequence[int], current: int) -> int:
        """Pick one node from ``candidates`` (guaranteed non-empty)."""

    def binder(self) -> Callable[[Sequence[int], int], int]:
        """Return the bare callable form used by walk_route and the fabric."""
        return self.choose

    def _check(self, candidates: Sequence[int]) -> None:
        if not candidates:
            raise RoutingError(f"{self.name} selection invoked with no candidates")


class FirstCandidatePolicy(SelectionPolicy):
    """Always the router's first (highest-preference) candidate.

    Combined with a deterministic router this yields fully deterministic,
    repeatable paths — the regime where PPM/DPM path reconstruction works.
    """

    name = "first"

    def choose(self, candidates: Sequence[int], current: int) -> int:
        self._check(candidates)
        return candidates[0]


class RandomPolicy(SelectionPolicy):
    """Uniform random choice from a seeded generator."""

    name = "random"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def choose(self, candidates: Sequence[int], current: int) -> int:
        self._check(candidates)
        return self.pick(candidates)

    def pick(self, candidates: Sequence[int]) -> int:
        """A uniform draw among the non-empty ``candidates``; a lone
        candidate is taken without one."""
        if len(candidates) == 1:
            return candidates[0]
        return candidates[int(self.rng.integers(len(candidates)))]


class LeastCongestedPolicy(SelectionPolicy):
    """Pick the candidate whose outgoing channel reports least congestion.

    Parameters
    ----------
    congestion:
        Callable (from_node, to_node) -> occupancy metric (higher = busier).
        The fabric binds this to real output-queue depths.
    rng:
        Tie-breaker generator; with None, ties resolve to the first minimum
        (deterministic).
    """

    name = "least-congested"

    def __init__(self, congestion: CongestionFn, rng: Optional[np.random.Generator] = None):
        self.congestion = congestion
        self.rng = rng

    def choose(self, candidates: Sequence[int], current: int) -> int:
        self._check(candidates)
        # The exact engine's switches apply a policy bound to their fabric's
        # own congestion view in place (repro.network.switch), single pass.
        loads = [self.congestion(current, v) for v in candidates]
        best = min(loads)
        return self.pick([v for v, load in zip(candidates, loads) if load == best])

    def pick(self, ties: Sequence[int]) -> int:
        """One of the equally least-loaded candidates ``ties``: the first,
        or a uniform draw among them when the policy has a generator."""
        if len(ties) == 1 or self.rng is None:
            return ties[0]
        return ties[int(self.rng.integers(len(ties)))]
