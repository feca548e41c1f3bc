"""Columnar mark-stream: batched delivery observation at instrumented nodes.

The per-packet delivery path (``Fabric.add_delivery_handler`` firing a Python
callback per delivered packet) is the victim-side hot loop the paper's
evaluation leans on — millions of marked packets observed, decoded, and
aggregated. This module replaces that callback-per-packet shape with a
columnar one:

* a :class:`DeliveryRing` attached to a node's NIC appends each delivery's
  analysis-relevant fields (event time, header src/dst, MF word, TTL, hop
  count) into preallocated numpy columns — no per-packet Python dispatch;
* when the ring fills, or at an explicit flush point (simulation run
  boundaries, result accessors), the filled prefix is handed to the ring's
  consumers as a :class:`MarkBatch`, which detectors and victim analyses
  process through their vectorized ``observe_batch`` entry points.

Equivalence contract: every batched consumer in the library is
*prefix-composable* — processing a delivery stream in any partition of
ordered batches yields bit-identical state to processing it one packet at a
time. That makes flush timing a pure performance knob: the golden
seed-for-seed pins and ``first_suspect_time`` are preserved no matter where
the batch boundaries fall (tests/test_markstream.py pins this).

Batch lifetime: the column arrays handed to consumers are *views* into the
ring's storage, valid only for the duration of the flush call — a consumer
that wants to keep data beyond its return must copy (every in-tree consumer
either aggregates immediately or copies). The ``packets`` list is an
independent snapshot and safe to keep.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError
from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.profile import EventProfiler

__all__ = ["MarkBatch", "DeliveryRing"]

BatchConsumer = Callable[["MarkBatch"], None]


class MarkBatch:
    """A read-only columnar view of consecutive deliveries at one node.

    Attributes
    ----------
    node:
        The delivering node (all rows share it).
    times:
        float64 event times, nondecreasing (deliveries arrive in event order).
    sources / dests:
        uint32 header source/destination addresses (``header.src`` may be
        spoofed — exactly as the per-packet path sees it).
    words:
        uint32 marking-field words (``header.identification``).
    ttls:
        int16 TTL values at delivery.
    hops:
        int32 switch-to-switch hop counts.
    packets:
        The delivered :class:`Packet` objects, in row order — what the
        per-row fallback paths and watching-phase consumers iterate. ``None``
        for batches produced by the batched engine, which never materializes
        per-packet objects; consumers that need identity use ``ids``.
    ids:
        int64 ``packet_id`` values, or ``None`` when the producer did not
        record them (pre-batched-engine rings). Ground-truth filtering in
        batched mode matches these against frozen attack-packet id sets.
    """

    __slots__ = ("node", "times", "sources", "dests", "words", "ttls",
                 "hops", "packets", "ids")

    def __init__(self, node: int, times: npt.NDArray[np.float64],
                 sources: npt.NDArray[np.uint32],
                 dests: npt.NDArray[np.uint32],
                 words: npt.NDArray[np.uint32],
                 ttls: npt.NDArray[np.int16],
                 hops: npt.NDArray[np.int32],
                 packets: Optional[List[Packet]],
                 ids: Optional[npt.NDArray[np.int64]] = None):
        self.node = node
        self.times = times
        self.sources = sources
        self.dests = dests
        self.words = words
        self.ttls = ttls
        self.hops = hops
        self.packets = packets
        self.ids = ids

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_packets(cls, node: int, packets: Sequence[Packet],
                     times: Optional[Sequence[float]] = None) -> "MarkBatch":
        """Build a batch directly from packets (tests, benchmarks, replays).

        ``times`` defaults to each packet's ``delivered_at`` (0.0 when unset).
        """
        packets = list(packets)
        n = len(packets)
        if times is None:
            time_col = np.fromiter(
                ((p.delivered_at if p.delivered_at is not None else 0.0)
                 for p in packets), dtype=np.float64, count=n)
        else:
            time_col = np.asarray(times, dtype=np.float64)
            if time_col.shape != (n,):
                raise ConfigurationError(
                    f"times has shape {time_col.shape}, expected ({n},)")
        return cls(
            node,
            time_col,
            np.fromiter((p.header.src for p in packets), dtype=np.uint32, count=n),
            np.fromiter((p.header.dst for p in packets), dtype=np.uint32, count=n),
            np.fromiter((p.header.identification for p in packets),
                        dtype=np.uint32, count=n),
            np.fromiter((p.header.ttl for p in packets), dtype=np.int16, count=n),
            np.fromiter((p.hops for p in packets), dtype=np.int32, count=n),
            packets,
            np.fromiter((p.packet_id for p in packets), dtype=np.int64, count=n),
        )

    def compress(self, mask: npt.NDArray[np.bool_]) -> "MarkBatch":
        """Rows where ``mask`` is True, as a new batch (order preserved)."""
        index = np.flatnonzero(mask)
        packets = self.packets
        return MarkBatch(
            self.node, self.times[index], self.sources[index],
            self.dests[index], self.words[index], self.ttls[index],
            self.hops[index],
            (None if packets is None
             else [packets[i] for i in index.tolist()]),
            None if self.ids is None else self.ids[index],
        )

    def tail(self, start: int) -> "MarkBatch":
        """Rows from ``start`` onward (the remainder after a watching phase)."""
        return MarkBatch(
            self.node, self.times[start:], self.sources[start:],
            self.dests[start:], self.words[start:], self.ttls[start:],
            self.hops[start:],
            None if self.packets is None else self.packets[start:],
            None if self.ids is None else self.ids[start:],
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"MarkBatch(node={self.node}, rows={len(self)})"


class DeliveryRing:
    """Preallocated columnar buffer for one instrumented node's deliveries.

    The NIC appends one row per delivery (:meth:`append` — six column stores
    and a list store, no object construction). A full ring flushes itself;
    the fabric flushes all rings at run boundaries; result accessors flush
    before reading. Consumers receive the filled prefix as a
    :class:`MarkBatch` (see the module docstring for the lifetime contract).

    When ``profiler`` is set, each flush's wall-clock cost and row count
    are folded into the profiler's batch-flush counters.
    """

    __slots__ = ("node", "capacity", "flushes", "rows_flushed", "profiler",
                 "_times", "_sources", "_dests", "_words", "_ttls", "_hops",
                 "_ids", "_packets", "_object_rows", "_fill", "_consumers")

    def __init__(self, node: int, capacity: int = 1024, *,
                 profiler: Optional["EventProfiler"] = None):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.node = node
        self.capacity = capacity
        self.flushes = 0
        self.rows_flushed = 0
        self.profiler = profiler
        self._times = np.empty(capacity, dtype=np.float64)
        self._sources = np.empty(capacity, dtype=np.uint32)
        self._dests = np.empty(capacity, dtype=np.uint32)
        self._words = np.empty(capacity, dtype=np.uint32)
        self._ttls = np.empty(capacity, dtype=np.int16)
        self._hops = np.empty(capacity, dtype=np.int32)
        self._ids = np.empty(capacity, dtype=np.int64)
        self._packets: List[Optional[Packet]] = [None] * capacity
        self._object_rows = 0
        self._fill = 0
        self._consumers: List[BatchConsumer] = []

    def add_consumer(self, consumer: BatchConsumer) -> None:
        """Register a ``fn(batch)`` invoked on every flush, in order."""
        self._consumers.append(consumer)

    @property
    def pending(self) -> int:
        """Rows appended since the last flush."""
        return self._fill

    def append(self, packet: Packet, time: float) -> None:
        """Record one delivery; flushes automatically when the ring fills."""
        i = self._fill
        header = packet.header
        self._times[i] = time
        self._sources[i] = header.src
        self._dests[i] = header.dst
        self._words[i] = header.identification
        self._ttls[i] = header.ttl
        self._hops[i] = packet.hops
        self._ids[i] = packet.packet_id
        self._packets[i] = packet
        self._object_rows += 1
        i += 1
        self._fill = i
        if i == self.capacity:
            self.flush()

    def extend(self, times: npt.NDArray[np.float64],
               sources: npt.NDArray[np.uint32],
               dests: npt.NDArray[np.uint32],
               words: npt.NDArray[np.uint32],
               ttls: npt.NDArray[np.int16],
               hops: npt.NDArray[np.int32],
               ids: npt.NDArray[np.int64]) -> int:
        """Append many rows at once (the batched engine's delivery path).

        Column arrays are copied into the ring in capacity-sized chunks,
        flushing whenever the ring fills — no per-row Python work and no
        packet objects. Batches flushed from extend-only fills carry
        ``packets=None``; returns the number of rows appended.
        """
        n = len(times)
        start = 0
        while start < n:
            take = min(self.capacity - self._fill, n - start)
            i, j = self._fill, self._fill + take
            s, e = start, start + take
            self._times[i:j] = times[s:e]
            self._sources[i:j] = sources[s:e]
            self._dests[i:j] = dests[s:e]
            self._words[i:j] = words[s:e]
            self._ttls[i:j] = ttls[s:e]
            self._hops[i:j] = hops[s:e]
            self._ids[i:j] = ids[s:e]
            self._fill = j
            start += take
            if self._fill == self.capacity:
                self.flush()
        return n

    def flush(self) -> int:
        """Hand buffered rows to the consumers; returns the row count.

        Safe to call at any time (a no-op when empty), including from within
        a consumer-triggered accessor — the fill pointer is reset before the
        consumers run, so re-entrant flushes see an empty ring.
        """
        n = self._fill
        if n == 0:
            return 0
        # Extend-only fills (the batched engine) never stored objects: hand
        # consumers a packet-less batch rather than a list of Nones.
        packets = self._packets[:n] if self._object_rows else None
        batch = MarkBatch(
            self.node, self._times[:n], self._sources[:n], self._dests[:n],
            self._words[:n], self._ttls[:n], self._hops[:n], packets,
            self._ids[:n],
        )
        self._fill = 0
        self._object_rows = 0
        self.flushes += 1
        self.rows_flushed += n
        profiler = self.profiler
        if profiler is not None:
            profiler.record_batch_flush("delivery-ring", n,
                                        self._run_consumers, batch)
        else:
            self._run_consumers(batch)
        if packets is not None:
            # Drop the ring's own references so flushed packets can be
            # collected without waiting for row overwrites.
            self._packets[:n] = [None] * n
        return n

    def _run_consumers(self, batch: MarkBatch) -> None:
        for consumer in self._consumers:
            consumer(batch)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"DeliveryRing(node={self.node}, fill={self._fill}/"
                f"{self.capacity}, flushes={self.flushes})")
