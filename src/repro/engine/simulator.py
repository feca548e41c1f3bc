"""The discrete-event simulator loop.

:class:`Simulator` owns the clock, the event heap, and the RNG registry.
Components schedule work with :meth:`Simulator.schedule_call` /
:meth:`Simulator.schedule_args` / :meth:`Simulator.schedule_at` and the
driver advances the world with :meth:`run_until` / :meth:`run` / :meth:`step`.

Hot-path notes
--------------
Every event is one heap tuple ``(time, seq, callback, args, label)``: the
bound method and its arguments ride in the entry itself (no lambda, no
cell objects) and no handle is returned, so an event cannot be
cancelled. ``seq`` comes from one counter and is unique, so events at
equal times run in insertion order and every comparison is decided by
``(time, seq)`` inside the C tuple-comparison loop.
``schedule_args(delay, fn, args, label)`` is ``schedule_call`` with the
arguments as one tuple, which the per-hop callers use. ``run_until``
runs the peek/pop/execute cycle over the raw heap — one heap operation
and one dispatch per event.

An event that usually has nothing to do can skip the heap: ``defer``
reserves its ``(time, seq)`` slot and ``commit`` pushes it into that
slot only if it gets work before ``frontier`` (the executing event's key)
passes it. ``events_executed`` counts it either way and is exact at every
``run_until`` boundary; ``heap_events`` counts heap pops (DESIGN.md §7).

Profiling is opt-in (``Simulator(profile=EventProfiler())`` or the CLI's
``--profile``): when enabled, every executed event is timed and attributed
to its label/callsite; when disabled the run loop pays a single ``is None``
check per event.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.engine.rng import RngRegistry
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.profile import EventProfiler
    from repro.engine.sanitize import SimSanitizer
    from repro.engine.watchdog import Watchdog

__all__ = ["Simulator"]


class Simulator:
    """Event-driven simulation kernel with a monotonically advancing clock.

    ``queue`` is the raw event heap of ``(time, seq, callback, args,
    label)`` tuples; ``len(sim.queue)`` is the number of pending events.

    Parameters
    ----------
    seed:
        Master seed for all component RNG streams.
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationError` after this
        many events, which turns accidental infinite event loops into a
        diagnosable failure instead of a hang.
    profile:
        Optional :class:`repro.engine.profile.EventProfiler`; when given,
        every executed event is timed and attributed.
    watchdog:
        Optional :class:`repro.engine.watchdog.Watchdog`; when given, the
        run loop performs a periodic wall-clock stall check and a drain-time
        deadlock check, terminating with a structured
        :class:`repro.errors.WatchdogTimeout` instead of hanging. A run
        without a watchdog pays one ``is None`` test per event.
    sanitize:
        Enable the runtime :class:`repro.engine.sanitize.SimSanitizer`:
        RNG streams audit cross-package use, drained fabrics check credit
        conservation, and the run loop validates event-heap ordering at its
        boundaries. ``None`` (the default) defers to the ``REPRO_SANITIZE``
        environment variable (any value other than empty/``0`` enables it).
        Violations raise :class:`repro.errors.SanitizerError`.
    """

    def __init__(self, seed: int = 0, max_events: int = 50_000_000,
                 profile: Optional["EventProfiler"] = None,
                 watchdog: Optional["Watchdog"] = None,
                 sanitize: Optional[bool] = None):
        self.now: float = 0.0
        self.queue: list = []
        self._seq = itertools.count()
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        self.sanitizer: Optional["SimSanitizer"] = None
        if sanitize:
            from repro.engine.sanitize import SimSanitizer
            self.sanitizer = SimSanitizer(self)
            self.rng: RngRegistry = self.sanitizer.guard_registry(seed)
        else:
            self.rng = RngRegistry(seed)
        self.max_events = max_events
        #: simulated events, deferred ones included; exact at every run_until
        #: boundary, while after step() or inside a callback it also counts
        #: deferred events still ahead of the frontier
        self.events_executed = 0
        self.heap_events = 0
        #: the executing event's key or heap entry, (now, inf) between runs
        #: and () before the first: every key at or before it has run
        self.frontier: tuple = ()
        self._deferred: Dict[Any, tuple] = {}  # owner -> its heap entry
        self.profile = profile
        if profile is not None:
            profile.sim = self
        self.watchdog = watchdog
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_call(self, delay: float, callback: Callable[..., Any],
                      *args: Any, label: str = "") -> None:
        """Fire ``callback(*args)`` ``delay`` time units from now.

        The callable and arguments ride in the heap entry itself, so hot
        paths schedule without building a lambda per hop. No handle is
        returned: an event, once scheduled, runs.
        """
        self.schedule_args(delay, callback, args, label)

    def schedule_args(self, delay: float, callback: Callable[..., Any],
                      args: tuple, label: str = "") -> None:
        """:meth:`schedule_call` with the arguments passed as one tuple.

        A ``*args`` signature sends every call down the interpreter's
        generic call path; the per-hop callers (a channel's arrival, a
        switch's routing delay) pass the tuple they already have.
        """
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self.queue, (self.now + delay, next(self._seq),
                                    callback, args, label))

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, label: str = "") -> None:
        """:meth:`schedule_call` at absolute simulated ``time`` (>= now)."""
        if not time >= self.now:  # in the past or NaN
            raise SimulationError(f"cannot schedule at {time} before now={self.now}")
        heapq.heappush(self.queue, (time, next(self._seq), callback, args, label))

    def defer(self, owner: Any, time: float, callback: Callable[[], Any],
              label: str = "") -> tuple:
        """Reserve the heap slot of ``callback()`` at ``time``; return its key.

        The key is ``(time, seq)``; compare only keys with :attr:`frontier`.
        Unless :meth:`commit` pushes it first, the event counts as run, doing
        nothing, once :attr:`frontier` passes it. One per ``owner`` at a time.
        """
        entry = (time, next(self._seq), callback, (), label)
        self._deferred[owner] = entry
        self.events_executed += 1
        return entry[:2]

    def commit(self, owner: Any) -> None:
        """Push ``owner``'s deferred event into its slot, if it is still ahead."""
        entry = self._deferred.pop(owner, ())
        if entry[:2] > self.frontier:
            self.events_executed -= 1
            heapq.heappush(self.queue, entry)  # the reserved entry, as is

    def _count(self, heap_events: int) -> None:
        self.events_executed += heap_events - self.heap_events
        self.heap_events = heap_events

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event. Returns False when the heap is empty."""
        if not self.queue:
            return False
        entry = heapq.heappop(self.queue)
        time = entry[0]
        if time < self.now:
            raise SimulationError(
                f"event time {time} precedes clock {self.now} (queue corrupt)"
            )
        self.now = time
        self.frontier = entry
        self._count(self.heap_events + 1)
        if self.profile is None:
            entry[2](*entry[3])
        else:
            self.profile.record(entry[2], entry[3], entry[4])
        return True

    def run(self) -> float:
        """Run until the event queue drains; returns the final clock value."""
        return self.run_until(math.inf)

    def run_until(self, end_time: float) -> float:
        """Run events with time <= ``end_time``; clock lands on min(end, last event).

        The clock is advanced to ``end_time`` if the queue drains first and
        ``end_time`` is finite, so back-to-back ``run_until`` calls observe a
        continuous timeline. The ``max_events`` valve counts heap events.
        """
        if self._running:
            raise SimulationError("re-entrant run_until() call")
        self._running = True
        sanitizer = self.sanitizer
        if sanitizer is not None:
            # Boundary checks only: the heap validation is O(n), so it runs
            # outside the hot loop, on entry and on clean exit.
            sanitizer.check_heap(self.queue, self.now)
        # The loop below is the single hottest code in the repository: it
        # peeks and pops the raw heap inline, so each event costs one
        # heappop plus the callback, with no per-event method calls.
        # Semantics match step(): max_events safety valve, monotonic clock
        # enforcement. `executed` counts heap events; _count() folds it
        # into events_executed.
        heap = self.queue
        heappop = heapq.heappop
        max_events = self.max_events
        profile = self.profile
        executed = self.heap_events
        watchdog = self.watchdog
        if watchdog is not None:
            watchdog.start()
            wd_next_check = executed + watchdog.check_interval
        else:
            wd_next_check = None
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > end_time:
                    break
                if executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={self.max_events}; "
                        "likely an event loop that never drains"
                    )
                if time < self.now:
                    raise SimulationError(
                        f"event time {time} precedes clock {self.now} (queue corrupt)"
                    )
                heappop(heap)
                self.now = time
                self.frontier = entry
                executed += 1
                if profile is None:
                    entry[2](*entry[3])
                else:
                    profile.record(entry[2], entry[3], entry[4])
                if wd_next_check is not None and executed >= wd_next_check:
                    self._count(executed)
                    watchdog.check_stall(self)
                    wd_next_check = executed + watchdog.check_interval
            if watchdog is not None and not heap:
                # The event queue drained: anything still parked in network
                # queues can never move again — the deadlock signature.
                self._count(executed)
                watchdog.check_deadlock(self)
            if math.isfinite(end_time) and end_time > self.now:
                self.now = end_time
            self.frontier = (self.now, math.inf)
            for owner in list(self._deferred):
                self.commit(owner)  # uncounts the ones that have not run
            if sanitizer is not None:
                self._count(executed)
                sanitizer.check_heap(heap, self.now)
            return self.now
        finally:
            self._count(executed)
            self._running = False

    def reset(self, seed: Optional[int] = None) -> None:
        """Clear the queue and clock; optionally reseed the RNG registry."""
        self.queue.clear()
        self.now = 0.0
        self.events_executed = 0
        self.heap_events = 0
        self.frontier = ()
        self._deferred.clear()
        if seed is None:
            self.rng.reset()
        elif self.sanitizer is not None:
            self.rng = self.sanitizer.guard_registry(seed)
        else:
            self.rng = RngRegistry(seed)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Simulator(now={self.now:.6g}, pending={len(self.queue)}, "
                f"executed={self.events_executed})")
