"""Columnar injection capture for the batched cohort-advance engine.

The exact engine moves one Python packet object per discrete event; at
64x64-torus scale that is millions of events and the dominant cost. The
batched mode replaces the per-packet event stream with struct-of-arrays
cohorts (mirroring :class:`~repro.network.markstream.MarkBatch`:
src/dst/MF-word/TTL/hop/time columns) advanced a whole round at a time by
:class:`repro.engine.batched.CohortEngine`.

This module holds the network-side half:

* :class:`InjectionLog` — the columnar capture buffer every traffic
  generator writes into. ``inject`` is the single funnel all in-tree
  generators use, so capturing there covers floods, background noise, and
  static attack campaigns without touching them.
* :class:`BatchedFabric` — a cohort backend on the shared
  :class:`~repro.network.fabric.FabricShell` (no switches, no channels):
  ``inject`` records columns instead of scheduling events and ``run`` hands
  the captured log to the cohort engine. The shell refuses the per-packet
  observation APIs; ``attach_delivery_sink`` is the columnar replacement.
  Link failures are refused once the engine has run.
* :class:`ShardedFabric` — the same capture surface, but ``run`` hands the
  log to :class:`repro.engine.sharded.ShardedEngine`, which partitions the
  topology into ``shards`` pieces and advances one cohort engine per shard
  under conservative time-window synchronization (multi-process when the
  ``fork`` start method exists, serially otherwise). It runs the capture
  once; traffic captured after that is refused.

Equivalence contract: the exact per-packet mode remains the golden-pinned
reference. The table in :mod:`repro.engine.contract` (rendered in
DESIGN.md §12) says where each cohort engine is bit-equal to it, where only
statistically equivalent, and what it refuses; every cohort run first
passes :func:`~repro.engine.contract.admit`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.engine.contract import admit, refuse
from repro.errors import ConfigurationError
from repro.network.fabric import FabricShell
from repro.network.packet import Packet

__all__ = ["InjectionLog", "BatchedFabric", "ShardedFabric"]


class InjectionLog:
    """Struct-of-arrays capture of every injection requested before a run.

    Python lists during capture (appends are amortized O(1) and the capture
    phase is per-packet by nature — the generators hand us one packet at a
    time); :meth:`columns` converts to numpy once, sorted by injection time.
    Columnar generators (``schedule_background_bulk``) bypass the lists
    entirely via :meth:`extend`, which banks whole array chunks.
    """

    __slots__ = ("times", "nodes", "sources", "dests", "dst_ips", "sizes",
                 "ids", "_chunks")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.nodes: List[int] = []
        self.sources: List[int] = []
        self.dests: List[int] = []
        self.dst_ips: List[int] = []
        self.sizes: List[int] = []
        self.ids: List[int] = []
        # Array chunks from bulk generators, merged with the scalar lists
        # in columns(); order within the log never matters because columns()
        # time-sorts the union.
        self._chunks: List[dict] = []

    def __len__(self) -> int:
        return len(self.times) + sum(
            chunk["times"].size for chunk in self._chunks)

    def append(self, time: float, node: int, src_ip: int, dst_node: int,
               dst_ip: int, size: int, packet_id: int) -> None:
        """Record one future injection as seven scalar column entries.

        ``src_ip``/``dst_ip`` are the (possibly spoofed) header addresses the
        delivery stream reports; ``node``/``dst_node`` are the fabric indexes
        the cohort engine routes between.
        """
        self.times.append(time)
        self.nodes.append(node)
        self.sources.append(src_ip)
        self.dests.append(dst_node)
        self.dst_ips.append(dst_ip)
        self.sizes.append(size)
        self.ids.append(packet_id)

    def extend(self, times: np.ndarray, nodes: np.ndarray,
               src_ips: np.ndarray, dest_nodes: np.ndarray,
               dst_ips: np.ndarray, sizes: np.ndarray,
               ids: np.ndarray) -> None:
        """Record a whole chunk of injections as seven parallel arrays.

        The bulk twin of :meth:`append`: columnar traffic generators hand
        entire workloads over in one call, keeping the capture phase free of
        per-packet Python. Arrays are banked as-is (no copies) and merged at
        :meth:`columns` time.
        """
        arrays = {
            "times": np.asarray(times, dtype=np.float64),
            "nodes": np.asarray(nodes, dtype=np.int64),
            "sources": np.asarray(src_ips, dtype=np.int64),
            "dests": np.asarray(dest_nodes, dtype=np.int64),
            "dst_ips": np.asarray(dst_ips, dtype=np.int64),
            "sizes": np.asarray(sizes, dtype=np.int64),
            "ids": np.asarray(ids, dtype=np.int64),
        }
        lengths = {column.size for column in arrays.values()}
        if len(lengths) != 1:
            raise ConfigurationError(
                f"bulk injection columns disagree on length: {sorted(lengths)}")
        self._chunks.append(arrays)

    def columns(self) -> dict:
        """Materialize the capture as time-sorted numpy columns.

        Sorting is stable, so simultaneous injections keep capture order —
        the same tie-break the event queue's sequence numbers give the exact
        engine.
        """
        scalar = {
            "times": np.asarray(self.times, dtype=np.float64),
            "nodes": np.asarray(self.nodes, dtype=np.int64),
            "sources": np.asarray(self.sources, dtype=np.int64),
            "dests": np.asarray(self.dests, dtype=np.int64),
            "dst_ips": np.asarray(self.dst_ips, dtype=np.int64),
            "sizes": np.asarray(self.sizes, dtype=np.int64),
            "ids": np.asarray(self.ids, dtype=np.int64),
        }
        merged = {
            name: np.concatenate([scalar[name]]
                                 + [chunk[name] for chunk in self._chunks])
            for name in scalar
        }
        order = np.argsort(merged["times"], kind="stable")
        return {name: column[order] for name, column in merged.items()}


class BatchedFabric(FabricShell):
    """A fabric whose run loop advances packet cohorts instead of events.

    The shell supplies the wiring, NICs, statistics and columnar delivery
    sinks; ``inject`` captures columns into an :class:`InjectionLog` and
    ``run`` drives :class:`repro.engine.batched.CohortEngine` over them.
    No channels, no deadlock probe.
    """

    #: engine discriminator mirrored into ExperimentConfig.engine
    engine_name = "batched"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = InjectionLog()
        # Built at the first run, then persistent: run_until cuts one
        # capture into segments, with live cohort rows carried across calls.
        self._engine = None

    # ------------------------------------------------------------------
    # Capture path
    # ------------------------------------------------------------------
    def inject(self, packet: Packet, at_node: Optional[int] = None,
               delay: float = 0.0) -> None:
        """Capture ``packet`` as one columnar row (no event is scheduled)."""
        node = at_node if at_node is not None else packet.true_source
        if not self.topology.contains(node):
            raise ConfigurationError(f"injection node {node} outside topology")
        self.log.append(self.sim.now + delay, node, packet.header.src,
                        packet.destination_node, packet.header.dst,
                        packet.size_bytes, packet.packet_id)

    # ------------------------------------------------------------------
    # Link failures: the route tables are built with the engine, so a link
    # changed after that would still be crossed
    # ------------------------------------------------------------------
    def fail_link(self, u: int, v: int) -> None:
        """Fail a link (before the first run only)."""
        self._refuse_after_run("fail_link")
        self.topology.fail_link(u, v)

    def restore_link(self, u: int, v: int) -> None:
        """Restore a failed link (before the first run only)."""
        self._refuse_after_run("restore_link")
        self.topology.restore_link(u, v)

    def _refuse_after_run(self, api: str) -> None:
        if self._engine is not None:
            refuse(self.engine_name, "link-change-after-run",
                   f"{api} after the first run")

    # ------------------------------------------------------------------
    # Runtime control
    # ------------------------------------------------------------------
    def run(self) -> float:
        """Advance all captured cohorts to completion; flush sinks at the end."""
        return self._advance(None)

    def run_until(self, time: float) -> float:
        """Advance cohorts through the rounds at or below ``time`` and stop.

        A partial-horizon cut: rounds whose frontier lies at or below the
        horizon run in full, live rows stay resident in the engine, and the
        next run/run_until call resumes the identical round schedule — so a
        segmented run reproduces the single-run results bit for bit (see
        ``CohortEngine.advance``). Back-to-back calls observe a continuous
        timeline, matching the exact engine's ``Simulator.run_until``.
        """
        return self._advance(float(time))

    def _advance(self, until: Optional[float]) -> float:
        admit(self)
        if self._engine is None:
            from repro.engine.batched import CohortEngine

            self._engine = CohortEngine(self)
        self._engine.advance(until)
        if self._delivery_sinks:
            self.flush_delivery_sinks()
        return self.sim.now


class ShardedFabric(BatchedFabric):
    """A batched-capture fabric run by the sharded multi-process engine.

    Identical capture surface and statistics to :class:`BatchedFabric`; the
    run loop partitions the topology into ``shards`` pieces and advances one
    cohort engine per shard under conservative time-window sync
    (:class:`repro.engine.sharded.ShardedEngine`), merging results so they
    are identical to the single-process batched engine. The capture runs
    once: a repeat ``run`` with nothing new captured is a no-op, and
    traffic captured after a completed run is refused.

    ``shard_mode`` selects the worker transport: ``"process"`` (fork-spawned
    workers), ``"serial"`` (in-process, for debugging and single-core CI),
    or ``None``/``"auto"`` (process when fork is available). The
    ``REPRO_SHARDED_MODE`` environment variable overrides an unset mode.
    """

    engine_name = "sharded"

    #: default shard count when the config/CLI leaves it unset
    DEFAULT_SHARDS = 2

    def __init__(self, *args, shards: Optional[int] = None,
                 shard_mode: Optional[str] = None, **kwargs):
        super().__init__(*args, **kwargs)
        if shards is None:
            shards = self.DEFAULT_SHARDS
        if isinstance(shards, bool) or not isinstance(shards, (int, np.integer)):
            raise ConfigurationError(f"shards must be an int, got {shards!r}")
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)
        self.shard_mode = shard_mode

    def run(self) -> float:
        """Partition, advance every shard to completion, merge, flush sinks."""
        admit(self)
        if self._engine is None:
            from repro.engine.sharded import ShardedEngine

            engine = ShardedEngine(self)
            engine.run()
            # Kept only once complete: nothing merges into the fabric
            # before the end, so a failed run can simply be retried.
            self._engine = engine
        elif len(self.log) != self._engine.captured:
            refuse(self.engine_name, "capture-after-run",
                   "traffic captured after a completed run")
        if self._delivery_sinks:
            self.flush_delivery_sinks()
        return self.sim.now

    def run_until(self, time: float) -> float:
        """Refused: shard workers run the capture to completion."""
        refuse(self.engine_name, "run-until", "run_until")
