"""Columnar injection capture for the batched cohort-advance engine.

The exact engine moves one Python packet object per discrete event; at
64x64-torus scale that is millions of events and the dominant cost. The
batched mode replaces the per-packet event stream with struct-of-arrays
cohorts (mirroring :class:`~repro.network.markstream.MarkBatch`:
src/dst/MF-word/TTL/hop/time columns) advanced a whole round at a time by
:class:`repro.engine.batched.CohortEngine`.

This module holds the network-side half:

* :class:`InjectionLog` — the columnar capture buffer every traffic
  generator writes into: whole column chunks from ``inject_rows``, the
  one call per generator call floods and background noise make, and
  single rows from ``inject``, the per-packet path of everything else.
* :class:`BatchedFabric` — a cohort backend on the shared
  :class:`~repro.network.fabric.FabricShell` (no switches, no channels):
  ``inject_rows`` and ``inject`` record columns instead of scheduling
  events, and ``run`` hands the captured log to the cohort engine.
  ``inject_rows`` builds no packet: it range-checks the rows with array
  tests, reserves one id block and banks one chunk. The shell refuses
  the per-packet observation APIs; ``attach_delivery_sink`` is the
  columnar replacement.
  The capture runs once: a repeat ``run`` with nothing new captured is a
  no-op, and traffic captured after the run, ``run_until`` and link
  failures after the run are refused. A repeat ``run`` after a run that
  raised raises ``SimulationError``: the statistics it left are partial.
* :class:`ShardedFabric` — the same capture surface and run rule, but its
  engine is :class:`repro.engine.sharded.ShardedEngine`, which partitions
  the topology into ``shards`` pieces and advances one cohort engine per
  shard under conservative time-window synchronization (multi-process when
  the ``fork`` start method exists, serially otherwise).

Equivalence contract: the exact per-packet mode remains the golden-pinned
reference. The table in :mod:`repro.engine.contract` (rendered in
DESIGN.md §12) says where each cohort engine is bit-equal to it, where only
statistically equivalent, and what it refuses; every cohort run first
passes :func:`~repro.engine.contract.admit`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.engine.contract import admit, refuse
from repro.errors import ConfigurationError, SimulationError
from repro.network.fabric import FabricShell
from repro.network.ip import IPHeader
from repro.network.packet import Packet, PacketKind, allocate_packet_ids

__all__ = ["InjectionLog", "BatchedFabric", "ShardedFabric"]


class InjectionLog:
    """Struct-of-arrays capture of every injection requested before a run.

    The traffic generators hand over one chunk per call
    (``BatchedFabric.inject_rows``: a flow, or one background call), which
    :meth:`extend` banks as arrays; packets injected one at a time
    (``BatchedFabric.inject``) go to Python lists via :meth:`append`, and
    :meth:`extend` banks those pending rows as a chunk of their own first,
    so the chunks hold every row in capture order. :meth:`columns`
    converts to numpy once, sorted by injection time.
    """

    __slots__ = ("times", "nodes", "sources", "dests", "dst_ips", "sizes",
                 "ids", "_chunks")

    def __init__(self) -> None:
        # Array chunks in capture order; the scalar lists hold the rows
        # appended since the last chunk.
        self._chunks: List[dict] = []
        self._start_rows()

    def _start_rows(self) -> None:
        """Empty scalar lists for the next run of single rows."""
        self.times: List[float] = []
        self.nodes: List[int] = []
        self.sources: List[int] = []
        self.dests: List[int] = []
        self.dst_ips: List[int] = []
        self.sizes: List[int] = []
        self.ids: List[int] = []

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

        The chunk twin of :meth:`append`: a generator call's rows arrive
        in one call, keeping the capture phase free of per-packet Python.
        Arrays are banked as-is (no copies) and merged at :meth:`columns`
        time.
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
        if self.times:
            self._chunks.append(self._rows())
            self._start_rows()
        self._chunks.append(arrays)

    def _rows(self) -> dict:
        """The pending single rows as one chunk."""
        return {
            "times": np.asarray(self.times, dtype=np.float64),
            "nodes": np.asarray(self.nodes, dtype=np.int64),
            "sources": np.asarray(self.sources, dtype=np.int64),
            "dests": np.asarray(self.dests, dtype=np.int64),
            "dst_ips": np.asarray(self.dst_ips, dtype=np.int64),
            "sizes": np.asarray(self.sizes, dtype=np.int64),
            "ids": np.asarray(self.ids, dtype=np.int64),
        }

    def columns(self) -> dict:
        """Materialize the capture as time-sorted numpy columns.

        Sorting is stable and the chunks are in capture order, so
        simultaneous injections keep capture order — the same tie-break
        the event queue's sequence numbers give the exact engine — whether
        they came one at a time or in chunks.
        """
        parts = self._chunks + [self._rows()]
        merged = {name: np.concatenate([part[name] for part in parts])
                  for name in parts[-1]}
        order = np.argsort(merged["times"], kind="stable")
        return {name: column[order] for name, column in merged.items()}


class BatchedFabric(FabricShell):
    """A fabric whose run loop advances packet cohorts instead of events.

    The shell supplies the wiring, NICs, statistics and columnar delivery
    sinks; ``inject_rows`` and ``inject`` capture columns into an
    :class:`InjectionLog` and ``run`` drives
    :class:`repro.engine.batched.CohortEngine` over them, once. No
    channels, no deadlock probe.
    """

    #: engine discriminator mirrored into ExperimentConfig.engine
    engine_name = "batched"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = InjectionLog()
        # Built by the first run, with the capture size it ran. _failed is
        # set while that run is under way, so it stays set if the run raised.
        self._engine = None
        self._captured = 0
        self._failed = False

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

    def inject_rows(self, delays: Sequence[float], sources: Sequence[int],
                    dests: Sequence[int], *,
                    src_ips: Optional[Sequence[int]] = None,
                    kind: PacketKind = PacketKind.DATA, flow_id: int = 0,
                    payload_bytes: int = 64) -> np.ndarray:
        """Capture one generator call's rows as one log chunk; returns ids.

        The columnar twin of :meth:`Fabric.inject_rows`, building no
        ``Packet``: the rows get one block of consecutive ids (those
        ``make_packet`` would have given them, in row order) and pass
        ``make_packet``'s checks as array tests: both nodes inside the
        topology, 32-bit source addresses, a non-negative payload.
        ``kind`` and ``flow_id`` have no column here.
        """
        nodes = np.asarray(sources, dtype=np.int64)
        dest_nodes = np.asarray(dests, dtype=np.int64)
        if nodes.size == 0:
            return np.empty(0, dtype=np.int64)
        num_nodes = self.topology.num_nodes
        both = np.concatenate((nodes, dest_nodes))
        outside = (both < 0) | (both >= num_nodes)
        if outside.any():
            raise ConfigurationError(
                f"node {both[np.argmax(outside)]} outside topology of "
                f"{num_nodes} nodes")
        if payload_bytes < 0:
            raise ConfigurationError(
                f"total_length {IPHeader.HEADER_BYTES + payload_bytes} "
                "below header size")
        ip_base = self.addresses.base + 1  # ip_of(node) == base + node + 1
        if src_ips is None:
            src = nodes + ip_base
        else:
            src = np.asarray(src_ips, dtype=np.int64)
            bad = (src < 0) | (src >= 1 << 32)
            if bad.any():
                raise ConfigurationError(
                    f"src address {src[np.argmax(bad)]} is not a 32-bit value")
        count = nodes.size
        ids = np.arange(count, dtype=np.int64) + allocate_packet_ids(count)
        self.log.extend(self.sim.now + np.asarray(delays, dtype=np.float64),
                        nodes, src, dest_nodes, dest_nodes + ip_base,
                        np.full(count, IPHeader.HEADER_BYTES + payload_bytes,
                                dtype=np.int64), ids)
        return ids

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
        """Run the capture to completion, once; flush sinks at the end.

        A repeat run with nothing new captured is a no-op; traffic captured
        after the run is refused, and so is any run after one that raised.
        """
        admit(self)
        if self._engine is None:
            # Recorded before it runs: the engine writes statistics onto the
            # fabric as it goes, so a run that raised is not run again.
            self._engine = self._new_engine()
            self._captured = len(self.log)
            self._failed = True
            self._engine.run()
            self._failed = False
        elif self._failed:
            raise SimulationError(
                f"an earlier {self.engine_name} run failed; its statistics "
                "are partial")
        elif len(self.log) != self._captured:
            refuse(self.engine_name, "capture-after-run",
                   "traffic captured after a run")
        if self._delivery_sinks:
            self.flush_delivery_sinks()
        return self.sim.now

    def run_until(self, time: float) -> float:
        """Refused: a cohort engine runs its capture to completion."""
        refuse(self.engine_name, "run-until", "run_until")

    def _new_engine(self):
        from repro.engine.batched import CohortEngine

        return CohortEngine(self)


class ShardedFabric(BatchedFabric):
    """A batched-capture fabric run by the sharded multi-process engine.

    Identical capture surface, statistics and run rule to
    :class:`BatchedFabric`; its engine partitions the topology into
    ``shards`` pieces and advances one cohort engine per shard under
    conservative time-window sync
    (:class:`repro.engine.sharded.ShardedEngine`). Results equal the
    single-process batched engine's, and each other's across shard counts,
    only where draws cannot reach outcomes (deterministic marking and
    selection, DDPM under any routing); elsewhere each shard draws from its
    own streams and the agreement is statistical.

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

    def _new_engine(self):
        from repro.engine.sharded import ShardedEngine

        return ShardedEngine(self)
