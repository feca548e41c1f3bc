"""Opt-in event profiling: per-label timing and callsite attribution.

The hot-path rewrite of the engine was guided by measurement; this module
keeps that ability permanent so future optimizations are measured, not
guessed. An :class:`EventProfiler` attaches to a simulator
(``Simulator(profile=EventProfiler())``, ``Cluster(..., profile=...)`` or the
CLI's ``--profile``) and times every executed event with
``time.perf_counter``, attributing it to the event's label when one was
given and to the callback's qualified name (the callsite) always.

The profiler lives entirely off the common path: a simulator constructed
without one pays a single ``is None`` check per event.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Tuple, TYPE_CHECKING

from repro.util.tables import TextTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.events import Event

__all__ = ["EventProfiler", "ProfileEntry"]


class ProfileEntry(NamedTuple):
    """Aggregated timing for one (label, callsite) bucket."""

    label: str
    callsite: str
    count: int
    total_time: float

    @property
    def mean_time(self) -> float:
        """Average seconds per event in this bucket (0.0 when empty)."""
        return self.total_time / self.count if self.count else 0.0


class EventProfiler:
    """Accumulates per-event wall-clock timings, bucketed by label + callsite.

    ``record_call`` is invoked by the simulator's run loop *instead of* the
    raw callback invocation, so the two timestamps bracket exactly the
    event's own work (including any events it schedules, but not their
    execution).
    """

    def __init__(self) -> None:
        # (label, callsite) -> [count, total_seconds]; counts ride as floats
        # so the bucket is a homogeneous list — readers cast on the way out.
        self._buckets: Dict[Tuple[str, str], List[float]] = {}
        self.events_recorded = 0
        #: the profiled simulator (it sets this); the report prints its
        #: events_executed and heap_events
        self.sim: Any = None
        # label -> [flushes, rows, total_seconds] for columnar batch flushes
        # (delivery rings and any future batched sink); kept separate from
        # the per-event buckets because one flush spans many packets.
        self._flush_buckets: Dict[str, List[float]] = {}
        # Cohort-advance counters for the batched engine: one "event" there
        # handles a whole cohort of rows, so the per-event buckets alone
        # would under-report by orders of magnitude. A round's cost follows
        # the rows it moves (retires, routes and selects); parked rows,
        # waiting on a channel, cost only their deferred-time add. The
        # histogram buckets rounds by moved rows per power of two (key b
        # counts rounds with 2^(b-1) < moved <= 2^b).
        self.batch_advances = 0
        self.rows_moved = 0
        self.rows_parked = 0
        self._advance_seconds = 0.0
        self._advance_hist: Dict[int, int] = {}
        # Sharded-engine window counters: one conservative time window moves
        # every shard one cohort round, exchanging boundary rows afterwards.
        # A sync stall is a window some shard spent with zero live rows while
        # the fleet still had work — idle cores waiting on the barrier.
        self.shard_windows = 0
        self.boundary_rows_sent = 0
        self.max_boundary_occupancy = 0
        self.sync_stalls = 0

    # ------------------------------------------------------------------
    def record(self, callback: Callable[..., Any], args: Tuple[Any, ...],
               label: str) -> None:
        """Execute ``callback(*args)`` and fold its wall-clock cost into the buckets."""
        start = perf_counter()
        callback(*args)
        elapsed = perf_counter() - start
        callsite = getattr(callback, "__qualname__", None) or repr(callback)
        key = (label, callsite)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [1.0, elapsed]
        else:
            bucket[0] += 1.0
            bucket[1] += elapsed
        self.events_recorded += 1

    def record_call(self, event: "Event") -> None:
        """Execute an :class:`~repro.engine.events.Event` and record its cost."""
        self.record(event.callback, event.args, event.label)

    def record_batch_flush(self, label: str, rows: int,
                           fn: Callable[..., Any], *args: Any) -> None:
        """Execute one batch flush ``fn(*args)`` and record its cost.

        Batched consumers process many packets per call; the flush buckets
        keep (flushes, rows, seconds) so the report can show both per-flush
        and per-row cost next to the per-event buckets.
        """
        start = perf_counter()
        fn(*args)
        elapsed = perf_counter() - start
        bucket = self._flush_buckets.get(label)
        if bucket is None:
            self._flush_buckets[label] = [1.0, float(rows), elapsed]
        else:
            bucket[0] += 1.0
            bucket[1] += rows
            bucket[2] += elapsed

    def record_batch_advance(self, fn: Callable[..., Tuple[int, int]],
                             *args: Any) -> None:
        """Execute one cohort advance ``fn(*args)`` and record its cost.

        The batched engine calls this once per round; ``fn`` returns the
        round's (moved, parked) row counts: the rows it retired, routed and
        selected, and the rows left waiting for a channel. ``advance_stats``
        then reports rows/event instead of the misleading
        one-packet-per-event accounting the per-event buckets would give.
        """
        start = perf_counter()
        moved, parked = fn(*args)
        elapsed = perf_counter() - start
        self.batch_advances += 1
        self.rows_moved += moved
        self.rows_parked += parked
        self._advance_seconds += elapsed
        bucket = (max(int(moved), 1) - 1).bit_length()  # ceil(log2(moved))
        self._advance_hist[bucket] = self._advance_hist.get(bucket, 0) + 1

    def record_shard_window(self, boundary_rows: int,
                            idle_shards: int) -> None:
        """Fold one sharded-engine sync window into the window counters.

        ``boundary_rows`` is the number of rows that crossed a shard
        boundary this window (the cross-shard queue occupancy);
        ``idle_shards`` how many workers advanced zero rows while the fleet
        still had work (a sync stall when nonzero).
        """
        self.shard_windows += 1
        self.boundary_rows_sent += boundary_rows
        if boundary_rows > self.max_boundary_occupancy:
            self.max_boundary_occupancy = boundary_rows
        if idle_shards:
            self.sync_stalls += 1

    def shard_window_stats(self) -> Dict[str, int]:
        """Sharded-engine summary: windows, boundary-queue traffic, stalls."""
        return {
            "windows": self.shard_windows,
            "boundary_rows": self.boundary_rows_sent,
            "max_boundary_occupancy": self.max_boundary_occupancy,
            "sync_stalls": self.sync_stalls,
        }

    def advance_stats(self) -> Dict[str, object]:
        """Cohort-advance summary: rounds, rows moved and parked, seconds,
        and the moved-rows-per-round histogram."""
        rounds = max(self.batch_advances, 1)
        return {
            "advances": self.batch_advances,
            "rows_moved": self.rows_moved,
            "rows_parked": self.rows_parked,
            "total_time": self._advance_seconds,
            "moved_per_advance": self.rows_moved / rounds,
            "parked_per_advance": self.rows_parked / rounds,
            "moved_histogram": {1 << b: count for b, count
                                in sorted(self._advance_hist.items())},
        }

    def flush_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-label batch-flush summary (flushes, rows, seconds)."""
        return {
            label: {"flushes": flushes, "rows": rows, "total_time": total}
            for label, (flushes, rows, total) in self._flush_buckets.items()
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        """Wall-clock seconds spent inside all recorded event callbacks."""
        return sum(bucket[1] for bucket in self._buckets.values())

    def entries(self) -> List[ProfileEntry]:
        """All buckets, sorted by cumulative time (descending)."""
        out = [ProfileEntry(label, callsite, int(count), total)
               for (label, callsite), (count, total) in self._buckets.items()]
        out.sort(key=lambda e: e.total_time, reverse=True)
        return out

    def top(self, n: int = 10) -> List[ProfileEntry]:
        """The ``n`` most expensive buckets by cumulative time."""
        return self.entries()[:n]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary keyed by ``label@callsite``."""
        out: Dict[str, Any] = {
            f"{entry.label or '-'}@{entry.callsite}": {
                "count": entry.count,
                "total_time": entry.total_time,
                "mean_time": entry.mean_time,
            }
            for entry in self.entries()
        }
        for label, stats in self.flush_stats().items():
            out[f"flush@{label}"] = dict(stats)
        if self.batch_advances:
            out["batch-advance@cohort"] = self.advance_stats()
        if self.shard_windows:
            out["shard-window@sync"] = self.shard_window_stats()
        return out

    def report(self, top: int = 10) -> str:
        """Human-readable top-N table (the ``make profile`` output)."""
        total = self.total_time
        table = TextTable(["label", "callsite", "events", "total s",
                           "mean us", "share"])
        for entry in self.top(top):
            share = entry.total_time / total if total else 0.0
            table.add_row([
                entry.label or "-",
                entry.callsite,
                entry.count,
                f"{entry.total_time:.4f}",
                f"{entry.mean_time * 1e6:.2f}",
                f"{share:6.1%}",
            ])
        header = (f"event profile: {self.events_recorded} events, "
                  f"{total:.4f}s inside callbacks")
        if self.sim is not None:
            header += (f"; simulator: {self.sim.events_executed} events "
                       f"executed, {self.sim.heap_events} off the heap")
        body = f"{header}\n{table.render()}"
        if self._flush_buckets:
            flush_table = TextTable(["flush label", "flushes", "rows",
                                     "total s", "us/row"])
            for label, (flushes, rows, seconds) in self._flush_buckets.items():
                per_row = (seconds / rows * 1e6) if rows else 0.0
                flush_table.add_row([label, flushes, rows,
                                     f"{seconds:.4f}", f"{per_row:.2f}"])
            body = f"{body}\nbatch flushes:\n{flush_table.render()}"
        if self.batch_advances:
            rounds = self.batch_advances
            advance_table = TextTable(["moved rows/advance <=", "rounds"])
            for power, count in sorted(self._advance_hist.items()):
                advance_table.add_row([1 << power, count])
            body = (f"{body}\ncohort advances: {rounds} rounds, "
                    f"{self.rows_moved} rows moved "
                    f"({self.rows_moved / rounds:.1f}/event), "
                    f"{self.rows_parked} rows parked "
                    f"({self.rows_parked / rounds:.1f}/event), "
                    f"{self._advance_seconds:.4f}s\n{advance_table.render()}")
        return body

    def reset(self) -> None:
        """Drop all recorded samples."""
        self._buckets.clear()
        self._flush_buckets.clear()
        self.events_recorded = 0
        self.batch_advances = 0
        self.rows_moved = 0
        self.rows_parked = 0
        self._advance_seconds = 0.0
        self._advance_hist.clear()
        self.shard_windows = 0
        self.boundary_rows_sent = 0
        self.max_boundary_occupancy = 0
        self.sync_stalls = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"EventProfiler(events={self.events_recorded}, "
                f"buckets={len(self._buckets)})")
