"""Event and event-queue primitives for the discrete-event kernel.

Events are ordered by ``(time, priority, sequence)``: ties at the same
simulated time break first on an explicit integer priority (lower runs
earlier), then on insertion order, which keeps runs deterministic for a
fixed seed regardless of dict/hash ordering.

Hot-path design: an event stores a *bound callable plus an args tuple*
instead of requiring callers to close over their arguments — the forwarding
pipeline schedules millions of events and a fresh closure per hop dominated
the allocation profile. Events scheduled through the zero-closure path
(:meth:`repro.engine.simulator.Simulator.schedule_call`) go further: no
handle is returned (so they can never be cancelled), which lets the queue
represent them as bare heap tuples with **no Event object at all** — the
``event`` element of the heap entry is ``None`` and the callback, args, and
label ride in the entry itself.

A sequence number drawn from the queue's counter reserves a slot: an entry
built with it and pushed later pops exactly where it would have had it been
pushed then (``Simulator.defer``/``commit``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulated time at which the callback fires.
    priority:
        Tie-breaker among events at the same time; lower fires first.
    callback:
        Callable invoked as ``callback(*args)`` when the event fires.
    args:
        Positional arguments stored on the event (empty for plain
        zero-argument callbacks).
    cancelled:
        Set by :meth:`cancel`; cancelled events are skipped by the queue.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "label")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., Any], label: str = "",
                 args: Tuple = ()):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark this event so the queue discards it instead of firing it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        tag = f" {self.label}" if self.label else ""
        return f"<Event t={self.time:.6g} p={self.priority} #{self.seq}{tag}{state}>"


class EventQueue:
    """Binary-heap event queue with lazy deletion and handle-free fast entries.

    Heap entries are tuples, not bare events, in one of two shapes:

    * ``(time, priority, seq, event)`` — cancellable, from :meth:`push`;
    * ``(time, priority, seq, None, callback, args, label)`` — the
      zero-closure fast path from ``Simulator.schedule_call`` and
      ``Simulator.commit``, which allocates no Event object at all.

    ``seq`` is unique, so every comparison is decided by the three leading
    numbers and runs entirely inside the C tuple-comparison loop —
    ``heappush``/``heappop`` never call back into :meth:`Event.__lt__`, and
    the mixed entry shapes are never compared past element 2.
    """

    def __init__(self):
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, callback: Callable[..., Any], priority: int = 0,
             label: str = "", args: Tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``; returns a cancellable Event."""
        seq = next(self._counter)
        event = Event(time, priority, seq, callback, label, args)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Fast-path entries (no Event) are wrapped in a fresh
        :class:`Event` here — only :meth:`Simulator.step` and tests take
        this path; the inlined run loop never calls ``pop``.

        Raises :class:`SimulationError` when the queue is empty.
        """
        while self._heap:
            entry = heapq.heappop(self._heap)
            event = entry[3]
            if event is None:
                self._live -= 1
                return Event(entry[0], entry[1], entry[2], entry[4],
                             entry[6], entry[5])
            if event.cancelled:
                continue
            self._live -= 1
            return event
        raise SimulationError("pop() on an empty event queue")

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when empty."""
        heap = self._heap
        while heap:
            event = heap[0][3]
            if event is not None and event.cancelled:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def note_cancelled(self) -> None:
        """Bookkeeping hook: callers that cancel an Event should report it here."""
        if self._live == 0:
            raise SimulationError("cancel bookkeeping underflow")
        self._live -= 1

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
