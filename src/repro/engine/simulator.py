"""The discrete-event simulator loop.

:class:`Simulator` owns the clock, the event queue, and the RNG registry.
Components schedule work with :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` / :meth:`Simulator.schedule_call` and the
driver advances the world with :meth:`run_until` / :meth:`run` / :meth:`step`.

Hot-path notes
--------------
``schedule_call(delay, fn, *args)`` is the zero-closure fast path: the bound
method and its arguments ride in the heap entry itself (no lambda, no cell
objects, no Event allocation) and no handle is returned;
``schedule_args(delay, fn, args, label)`` is the same call with the
arguments as one tuple, which the per-hop callers use. ``run_until``
inlines the peek/pop/execute cycle over the raw heap — one heap operation
and zero method calls of queue bookkeeping per event.

An event that usually has nothing to do can skip the heap: ``defer``
reserves its ``(time, 0, seq)`` slot and ``commit`` pushes it into that
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
import math
import os
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.engine.events import Event, EventQueue
from repro.engine.rng import RngRegistry
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.profile import EventProfiler
    from repro.engine.sanitize import SimSanitizer
    from repro.engine.watchdog import Watchdog

__all__ = ["Simulator"]


class Simulator:
    """Event-driven simulation kernel with a monotonically advancing clock.

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
        self.queue = EventQueue()
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
    def schedule(self, delay: float, callback: Callable[[], Any],
                 priority: int = 0, label: str = "") -> Event:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0 or delay != delay:  # delay != delay <=> NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.queue.push(self.now + delay, callback, priority, label)

    def schedule_call(self, delay: float, callback: Callable[..., Any],
                      *args: Any, label: str = "") -> None:
        """Zero-closure fast-path scheduling: fire ``callback(*args)`` after ``delay``.

        The callable and arguments ride in the heap entry itself, so hot
        paths schedule without building a lambda — or even an Event — per
        hop. No handle is returned; an event scheduled this way cannot be
        cancelled. Use :meth:`schedule` when you need the handle.
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
        queue = self.queue
        heapq.heappush(
            queue._heap,
            (self.now + delay, 0, next(queue._counter), None, callback, args, label),
        )
        queue._live += 1

    def schedule_at(self, time: float, callback: Callable[[], Any],
                    priority: int = 0, label: str = "") -> Event:
        """Schedule ``callback`` at absolute simulated ``time`` (>= now)."""
        if time < self.now or math.isnan(time):
            raise SimulationError(f"cannot schedule at {time} before now={self.now}")
        return self.queue.push(time, callback, priority, label)

    def defer(self, owner: Any, time: float, callback: Callable[[], Any],
              label: str = "") -> tuple:
        """Reserve the heap slot of ``callback()`` at ``time``; return its key.

        The key is ``(time, 0, seq)``; compare only keys with :attr:`frontier`.
        Unless :meth:`commit` pushes it first, the event counts as run, doing
        nothing, once :attr:`frontier` passes it. One per ``owner`` at a time.
        """
        entry = (time, 0, next(self.queue._counter), None, callback, (), label)
        self._deferred[owner] = entry
        self.events_executed += 1
        return entry[:3]

    def commit(self, owner: Any) -> None:
        """Push ``owner``'s deferred event into its slot, if it is still ahead."""
        entry = self._deferred.pop(owner, ())
        if entry[:3] > self.frontier:
            self.events_executed -= 1
            queue = self.queue
            heapq.heappush(queue._heap, entry)  # the reserved entry, as is
            queue._live += 1

    def _count(self, heap_events: int) -> None:
        self.events_executed += heap_events - self.heap_events
        self.heap_events = heap_events

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        if not event.cancelled:
            event.cancel()
            self.queue.note_cancelled()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty."""
        if not self.queue:
            return False
        event = self.queue.pop()
        if event.time < self.now:
            raise SimulationError(
                f"event time {event.time} precedes clock {self.now} (queue corrupt)"
            )
        self.now = event.time
        self.frontier = (event.time, event.priority, event.seq)
        self._count(self.heap_events + 1)
        profile = self.profile
        if profile is None:
            event.callback(*event.args)
        else:
            profile.record_call(event)
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
            sanitizer.check_heap(self.queue._heap, self.now)
        # The loop below is the single hottest code in the repository: it
        # inlines EventQueue.peek_time/pop over the raw heap so each event
        # costs one heappop plus the callback, with no per-event method
        # calls. Semantics match step(): lazy deletion of cancelled events,
        # max_events safety valve, monotonic clock enforcement. `executed`
        # counts heap events; _count() folds it into events_executed.
        queue = self.queue
        heap = queue._heap
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
                event = entry[3]
                if event is not None and event.cancelled:
                    heappop(heap)
                    continue
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
                queue._live -= 1
                self.now = time
                self.frontier = entry
                executed += 1
                if event is None:
                    # Fast-path entry: (..., None, callback, args, label).
                    if profile is None:
                        entry[4](*entry[5])
                    else:
                        profile.record(entry[4], entry[5], entry[6])
                elif profile is None:
                    event.callback(*event.args)
                else:
                    profile.record_call(event)
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
