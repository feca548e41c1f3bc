"""Runtime simulation sanitizer (the dynamic half of the determinism story).

The lint package proves what it can statically; this module checks the
invariants that only exist at runtime. Enabled via ``Simulator(sanitize=True)``
or ``REPRO_SANITIZE=1``, the :class:`SimSanitizer` instruments the simulation
and terminates the run with a structured, picklable
:class:`repro.errors.SanitizerError` the moment an invariant breaks —
the same contract :class:`repro.errors.WatchdogTimeout` follows.

Checked invariants
------------------
* **RNG stream ownership** — every named stream belongs to the repro
  subpackage that first draws from it; a draw reaching the same stream from
  a *different* subpackage is exactly the cross-contamination lint rule D4
  hunts statically (kind ``"rng-cross-use"``).
* **Credit conservation** — once the event queue drains, every live channel
  must have all its receiver credits back (kind ``"credit-leak"``).
* **Event-heap ordering** — the scheduler's heap must satisfy the heap
  property on (time, sequence) and never hold an event earlier
  than the clock (kind ``"heap-order"``).

Sanitizing never perturbs simulation results: the RNG guards delegate every
draw to the real generator unchanged, so a sanitized run is draw-for-draw
identical to an unsanitized one — the equivalence tests pin that.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.engine.rng import RngRegistry
from repro.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.network.channel import Channel

__all__ = [
    "GuardedGenerator",
    "GuardedRngRegistry",
    "SanitizerReport",
    "SimSanitizer",
]

#: repro subpackages whose frames claim ownership of an RNG stream; draws
#: from anywhere else (tests, analysis, drivers) are deliberately untracked
#: so harness code can inspect streams without tripping the guard.
TRACKED_SCOPES = frozenset({
    "engine", "network", "routing", "marking",
    "faults", "attack", "defense", "topology",
})

#: numpy Generator methods that consume stream state: the repo's only draw
#: list. The stdlib-only linter never imports the engine; its D3 and D4
#: treat every ``rng`` method except ``stream``/``spawn`` as a draw.
DRAW_METHODS = frozenset({
    "integers", "random", "choice", "shuffle", "permutation", "uniform",
    "normal", "exponential", "poisson", "standard_normal", "binomial",
    "geometric", "bytes", "permuted", "multinomial",
})

_OWN_MODULE = __name__


@dataclass
class SanitizerReport:
    """Structured account of a broken simulation invariant.

    Attributes
    ----------
    kind:
        ``"rng-cross-use"``, ``"credit-leak"``, or ``"heap-order"``.
    detail:
        Human-readable one-liner with the offending identifiers.
    subject:
        The violated object's name: stream name, ``"u->v"`` channel key, or
        packet id rendered as a string.
    sim_time:
        Simulated clock when the check fired.
    events_executed:
        Engine event count when the check fired.
    """

    kind: str
    detail: str
    subject: str = ""
    sim_time: float = 0.0
    events_executed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (embedded in failed run reports)."""
        return {
            "kind": self.kind,
            "detail": self.detail,
            "subject": self.subject,
            "sim_time": float(self.sim_time),
            "events_executed": int(self.events_executed),
        }

    def __str__(self) -> str:
        return (f"{self.kind} at t={self.sim_time:.6g} "
                f"({self.events_executed} events): {self.detail}")


class GuardedGenerator:
    """Transparent draw-auditing proxy around a ``numpy.random.Generator``.

    Every draw method first reports the stream name to the sanitizer, then
    delegates to the real generator — same arguments, same state advance —
    so guarded and bare streams produce identical sequences.
    """

    __slots__ = ("_gen", "_stream_name", "_sanitizer")

    def __init__(self, gen: np.random.Generator, stream_name: str,
                 sanitizer: "SimSanitizer"):
        object.__setattr__(self, "_gen", gen)
        object.__setattr__(self, "_stream_name", stream_name)
        object.__setattr__(self, "_sanitizer", sanitizer)

    def __getattr__(self, attr: str) -> Any:
        value = getattr(object.__getattribute__(self, "_gen"), attr)
        if attr not in DRAW_METHODS:
            return value
        sanitizer = object.__getattribute__(self, "_sanitizer")
        name = object.__getattribute__(self, "_stream_name")

        def _guarded_draw(*args: Any, **kwargs: Any) -> Any:
            sanitizer.note_draw(name)
            return value(*args, **kwargs)

        return _guarded_draw

    def __repr__(self) -> str:  # pragma: no cover
        return f"GuardedGenerator({object.__getattribute__(self, '_stream_name')!r})"


class GuardedRngRegistry(RngRegistry):
    """An :class:`~repro.engine.rng.RngRegistry` whose streams audit draws.

    ``stream(name)`` hands back a cached :class:`GuardedGenerator` wrapping
    the real stream; everything else behaves exactly like the base registry.
    """

    def __init__(self, seed: int, sanitizer: "SimSanitizer"):
        super().__init__(seed)
        self._sanitizer = sanitizer
        self._guards: Dict[str, GuardedGenerator] = {}

    def stream(self, name: str) -> GuardedGenerator:  # type: ignore[override]
        guard = self._guards.get(name)
        if guard is None:
            guard = GuardedGenerator(super().stream(name), name, self._sanitizer)
            self._guards[name] = guard
        return guard

    def spawn(self, name: str) -> "GuardedRngRegistry":
        child_seed = int(self.stream(f"__spawn__:{name}").integers(0, 2**31 - 1))
        return GuardedRngRegistry(child_seed, self._sanitizer)

    def reset(self) -> None:
        super().reset()
        self._guards.clear()


def _innermost_tracked_scope() -> Optional[str]:
    """The repro subpackage of the innermost simulation frame, or None.

    Walks the Python stack from the draw site outward and returns the first
    frame living in a tracked ``repro.<pkg>`` module. Frames of this module
    itself are skipped (the guard shim is not a scope).
    """
    frame = sys._getframe(1)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro.") and module != _OWN_MODULE:
            parts = module.split(".")
            if len(parts) > 1 and parts[1] in TRACKED_SCOPES:
                return parts[1]
        frame = frame.f_back
    return None


class SimSanitizer:
    """Collects runtime evidence and raises on the first broken invariant.

    One instance per :class:`~repro.engine.simulator.Simulator`; the
    simulator and fabric call the ``note_*`` / ``check_*`` hooks at the
    natural boundaries (draws, drain points). Hooks are
    cheap enough for test-scale runs; the production hot loop never sees
    them unless sanitizing was requested.
    """

    def __init__(self, sim: Optional["Simulator"] = None):
        self.sim = sim
        #: stream name -> repro subpackage that first drew from it
        self.stream_owners: Dict[str, str] = {}
        #: per-stream draw counts (diagnostics, not an invariant)
        self.draw_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Report plumbing
    # ------------------------------------------------------------------
    def _raise(self, kind: str, detail: str, subject: str = "") -> None:
        sim = self.sim
        report = SanitizerReport(
            kind=kind,
            detail=detail,
            subject=subject,
            sim_time=0.0 if sim is None else sim.now,
            events_executed=0 if sim is None else sim.events_executed,
        )
        raise SanitizerError(report)

    def guard_registry(self, seed: int) -> GuardedRngRegistry:
        """A fresh guarded registry bound to this sanitizer."""
        return GuardedRngRegistry(seed, self)

    # ------------------------------------------------------------------
    # RNG stream ownership
    # ------------------------------------------------------------------
    def note_draw(self, stream_name: str) -> None:
        """Record a draw on ``stream_name`` from the calling code's scope.

        The first draw from a tracked subpackage claims the stream; a later
        draw from a different tracked subpackage is cross-use. Draws from
        untracked code (tests, analysis) never claim or trip anything.
        """
        self.draw_counts[stream_name] = self.draw_counts.get(stream_name, 0) + 1
        scope = _innermost_tracked_scope()
        if scope is None:
            return
        owner = self.stream_owners.setdefault(stream_name, scope)
        if owner != scope:
            self._raise(
                "rng-cross-use",
                f"stream {stream_name!r} owned by repro.{owner} "
                f"was drawn from repro.{scope}",
                subject=stream_name,
            )

    # ------------------------------------------------------------------
    # Credit conservation
    # ------------------------------------------------------------------
    def check_credits(self, channels: Dict[Any, "Channel"]) -> None:
        """Every idle live channel must hold all its credits.

        Called at full-drain boundaries: with no events pending and no
        packet in flight or queued, a missing credit can never be returned —
        a conservation leak (or a deadlocked buffer occupant).
        """
        for key in sorted(channels):
            channel = channels[key]
            if channel.failed or channel.busy or channel.queue:
                continue
            if channel.credits != channel.buffer_capacity:
                u, v = key
                self._raise(
                    "credit-leak",
                    f"channel {u}->{v} drained with "
                    f"{channel.credits}/{channel.buffer_capacity} credits; "
                    f"{channel.buffer_capacity - channel.credits} can never "
                    "be returned",
                    subject=f"{u}->{v}",
                )

    # ------------------------------------------------------------------
    # Event-heap ordering
    # ------------------------------------------------------------------
    def check_heap(self, heap: List[Any], now: float) -> None:
        """O(n) heap-property check over the scheduler's raw heap.

        Entries order by their (time, sequence) prefix; a parent
        sorting after its child, or any entry timed before the clock, means
        someone mutated an entry in place or bypassed ``heapq``.
        """
        size = len(heap)
        for index in range(size):
            entry = heap[index]
            if entry[0] < now:
                self._raise(
                    "heap-order",
                    f"heap entry at t={entry[0]!r} precedes clock {now!r}",
                    subject=str(entry[0]),
                )
            for child_index in (2 * index + 1, 2 * index + 2):
                if child_index < size and entry[:2] > heap[child_index][:2]:
                    self._raise(
                        "heap-order",
                        f"heap property violated at index {index}: "
                        f"{entry[:2]!r} sorts after child {heap[child_index][:2]!r}",
                        subject=str(index),
                    )

    def __repr__(self) -> str:  # pragma: no cover
        return f"SimSanitizer(streams={len(self.stream_owners)})"
