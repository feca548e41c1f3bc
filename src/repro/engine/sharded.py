"""Sharded multi-process fabric engine with conservative time-window sync.

The batched :class:`~repro.engine.batched.CohortEngine` vectorized the hot
path but still runs on one core. This engine partitions the topology into K
shards (:mod:`repro.topology.partition`), runs one cohort engine per shard —
in worker processes under the ``fork`` start method, or serially in-process
— and advances them under conservative time-window synchronization:

* **Windows are rounds.** The cohort model is round-synchronous: every hop
  costs exactly ``round_delta = routing_delay + header_hold + link_latency``
  of simulated time, which is >= the minimum inter-shard link latency — the
  classic conservative lookahead bound. One sync window therefore advances
  every shard exactly one cohort round; a row that crosses a shard boundary
  in window *r* is absorbed by its new owner before window *r+1*, precisely
  when the single-process engine would next touch it.
* **Columnar boundary queues.** Cross-shard rows travel as struct-of-arrays
  column dicts (their slots plus the slot-store state), so marshalling is
  numpy slicing plus one pickle per window, never per-packet Python.
* **Deterministic merge.** Each shard's deliveries accumulate with their
  slot (global activation rank) and round index; the driver merges all sink
  rows with ``np.lexsort((slot, round, time))`` — exactly the
  single-process engine's stable time sort over its (round, slot)
  accumulation order — so detectors, victim analysis, and the
  property-equivalence suite see bit-identical streams.

Equivalence argument (DESIGN.md §14): every shard stores a row at its
global slot, so a shard's parked keys ``chan << 32 | slot`` sort exactly as
the single-process engine's do, and credit admission's "lowest slot wins"
is "lowest global rank wins". Each directed channel is owned by its source
node's shard, so all contenders for a channel live in one shard; per-shard
admission therefore reproduces global admission exactly, and the
deferred-row backlog (the congestion signal) decomposes per shard without
approximation. The per-shard RNG streams (``"sharded-cohort:<shard>"``
for selection, ``"sharded-marking:<shard>"`` for marking) differ from the
global engine's, so — exactly as for batched-vs-exact (DESIGN.md §12) —
bit-equality holds wherever drawn values cannot influence outcomes
(deterministic marking, p=1.0 marking, first-candidate selection, DDPM
under any routing) and statistical equivalence elsewhere.

Per-row Python work is banned here by lint rule H3; the loops below are
per-shard, per-window, or per-run and carry audited suppressions.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.batched import (_STORE_COLUMNS, CohortEngine,
                                  _check_columnar_marking)
from repro.engine.stats import WelfordAccumulator
from repro.engine.watchdog import WatchdogReport
from repro.errors import (ConfigurationError, SimulationError,
                          WatchdogTimeout)
from repro.network.ip import IPHeader
from repro.topology.partition import Partition, partition_topology

__all__ = ["ShardedEngine"]

#: extra seconds the driver waits for a worker beyond the watchdog's
#: wall-clock limit before declaring it wedged — the same grace the
#: ParallelRunner's pool backstop applies over its in-worker watchdogs.
_TIMEOUT_GRACE = 10.0

#: columns of a boundary block: the rows' slots (global activation ranks)
#: and their slot-store state. Every shard holds the whole capture, so the
#: read-only columns never travel.
_MIGRATE_COLUMNS = ("slot",) + _STORE_COLUMNS


class _ShardStats:
    """Worker-local twin of the fabric's statistics surface.

    Shard engines accumulate here instead of on the (driver-owned) fabric so
    the merge is explicit and identical in serial and multi-process modes.
    """

    __slots__ = ("n_injected", "n_delivered", "n_dropped", "_drop_reasons",
                 "latency")

    def __init__(self) -> None:
        self.n_injected = 0
        self.n_delivered = 0
        self.n_dropped = 0
        self._drop_reasons: Dict[str, int] = {}
        self.latency = WelfordAccumulator()


class _ShardCohortEngine(CohortEngine):
    """One shard's cohort engine, advanced one window at a time by a driver.

    Reuses the batched engine's activate/retire/route/admit/advance round
    verbatim (``_step``); what changes is the frontier (driver-controlled),
    the rows activated (this shard's slice of the capture, each at its
    global slot, so admission's slot order is the global rank order), and
    the statistics target (a local accumulator harvested once at the end).
    """

    def __init__(self, fabric, partition: Partition, shard: int):
        super().__init__(fabric)
        self.partition = partition
        self.shard = int(shard)
        self._shard_of = partition.shard_of
        # Dedicated per-shard stream: pure function of (seed, shard), so
        # serial and multi-process execution draw identically.
        self.rng = self.sim.rng.stream(f"sharded-cohort:{self.shard}")
        self.marking_rng = self.sim.rng.stream(
            f"sharded-marking:{self.shard}")
        self._stats = _ShardStats()

    def load(self, pending: Dict[str, np.ndarray],
             slots: np.ndarray) -> None:
        """Install the global time-sorted capture; this shard activates
        the rows at ``slots``."""
        self._install(pending, slots)
        self._next = 0
        self._started = True
        watchdog = self.sim.watchdog
        if watchdog is not None:
            watchdog.start()

    def advance_window(self, frontier: float,
                       inbox: Optional[Dict[str, np.ndarray]]) -> dict:
        """One conservative window: absorb boundary rows, run one round,
        extract the rows that crossed out of this shard."""
        watchdog = self.sim.watchdog
        if watchdog is not None:
            watchdog.check_stall(self.sim)
        self.frontier = frontier
        self._progressed = False
        if inbox is not None:
            self._absorb(inbox)
        moved, parked = self._step()
        self.rounds += 1
        outboxes = self._extract_outboxes()
        next_time = None
        if self._next < self._times.size:
            next_time = float(self._times[self._next])
        return {
            "outboxes": outboxes,
            "moved": moved,
            "parked": parked,
            "live": self.live(),
            "progressed": bool(self._progressed),
            "next_time": next_time,
        }

    def _absorb(self, inbox: Dict[str, np.ndarray]) -> None:
        """Store boundary rows at their slots; they join the moving set."""
        slots = inbox["slot"]
        for name in _STORE_COLUMNS:  # per-column, once per window  # repro-lint: disable=H3
            getattr(self, name)[slots] = inbox[name]
        self._moving = np.sort(np.concatenate([self._moving, slots]))

    def _extract_outboxes(self) -> Dict[int, Dict[str, np.ndarray]]:
        """Pull rows whose position now lies in another shard, per peer.

        Only moving rows can have crossed the cut: a parked row has not
        moved since it was routed from a node this shard owns.
        """
        moving = self._moving
        if not moving.size:
            return {}
        owner = self._shard_of[self.pos[moving]]
        foreign = owner != self.shard
        if not foreign.any():
            return {}
        leaving = moving[foreign]
        dest = owner[foreign]
        outboxes: Dict[int, Dict[str, np.ndarray]] = {}
        for peer in np.unique(dest).tolist():  # per-peer-shard, once per window  # repro-lint: disable=H3
            slots = leaving[dest == peer]
            outboxes[int(peer)] = {"slot": slots, **{
                name: getattr(self, name)[slots] for name in _STORE_COLUMNS}}
        self._moving = moving[~foreign]
        return outboxes

    def harvest(self) -> dict:
        """Ship every accumulator home for the driver's merge."""
        stats = self._stats
        latency = stats.latency
        sink: Optional[Tuple[np.ndarray, ...]] = None
        if self._sink_rows:
            sink = tuple(np.concatenate(parts)
                         for parts in zip(*self._sink_rows))
        consumed = self._pending["nodes"][self._slots[:self._next]]
        return {
            "n_injected": stats.n_injected,
            "n_delivered": stats.n_delivered,
            "n_dropped": stats.n_dropped,
            "drop_reasons": dict(stats._drop_reasons),
            "injected_counts": np.bincount(consumed, minlength=self.n),
            "delivered_counts": self._delivered_counts,
            "hop_counts": self._hop_counts,
            "latency": (latency.count, latency._mean, latency._m2,
                        latency.min, latency.max),
            "sink": sink,
            "max_time": float(self._max_time),
            "rounds": int(self.rounds),
        }


# ----------------------------------------------------------------------
# Worker transports: fork-spawned process or in-process serial twin
# ----------------------------------------------------------------------
def _describe_error(exc: BaseException) -> Tuple[str, str, Optional[dict]]:
    report = getattr(exc, "report", None)
    report_dict = None
    if isinstance(report, WatchdogReport):
        report_dict = report.to_dict()
    return (type(exc).__name__, str(exc), report_dict)


def _rebuild_error(shard: int,
                   payload: Tuple[str, str, Optional[dict]]) -> BaseException:
    name, message, report = payload
    if name == "WatchdogTimeout" and report is not None:
        return WatchdogTimeout(WatchdogReport(**report))
    if name == "ConfigurationError":
        return ConfigurationError(message)
    return SimulationError(f"shard {shard} worker failed: {name}: {message}")


def _shard_worker(conn, fabric, partition: Partition, shard: int,
                  pending: Dict[str, np.ndarray],
                  slots: np.ndarray) -> None:
    """Process entry point: build the shard engine, then serve windows.

    Runs under the ``fork`` start method, so ``fabric`` (and everything
    hanging off it) arrives as a copy-on-write snapshot — no pickling of
    routers, schemes, or simulator state.
    """
    try:
        engine = _ShardCohortEngine(fabric, partition, shard)
        engine.load(pending, slots)
        conn.send(("ready", None))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "window":
                _, frontier, inbox = message
                conn.send(("report", engine.advance_window(frontier, inbox)))
            elif kind == "finish":
                conn.send(("harvest", engine.harvest()))
                return
            else:  # "stop"
                return
    except BaseException as exc:  # ships home; the driver re-raises
        try:
            conn.send(("error", _describe_error(exc)))
        except (BrokenPipeError, OSError):  # driver already gone
            pass
    finally:
        conn.close()


class _ProcessShardWorker:
    """Driver-side handle for one fork-spawned shard worker."""

    def __init__(self, ctx, fabric, partition: Partition, shard: int,
                 pending: Dict[str, np.ndarray], slots: np.ndarray,
                 timeout: Optional[float]):
        self.shard = shard
        self.sim = fabric.sim
        self.timeout = timeout
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_shard_worker,
            args=(child, fabric, partition, shard, pending, slots),
            daemon=True)
        self.process.start()
        child.close()
        self._expect("ready")

    def _recv(self) -> Tuple[str, Any]:
        if self.timeout is not None and not self.conn.poll(self.timeout):
            raise WatchdogTimeout(WatchdogReport(
                kind="stall",
                detail=(f"shard {self.shard} worker unresponsive after "
                        f"{self.timeout:.1f}s (watchdog limit + grace)"),
                sim_time=self.sim.now,
                events_executed=self.sim.events_executed,
                wall_elapsed=self.timeout,
            ))
        try:
            kind, payload = self.conn.recv()
        except EOFError:
            raise SimulationError(
                f"shard {self.shard} worker died unexpectedly "
                f"(exitcode {self.process.exitcode})"
            ) from None
        if kind == "error":
            raise _rebuild_error(self.shard, payload)
        return kind, payload

    def _expect(self, kind: str) -> Any:
        got, payload = self._recv()
        if got != kind:
            raise SimulationError(
                f"shard {self.shard} worker protocol error: expected "
                f"{kind!r}, got {got!r}")
        return payload

    def send_window(self, frontier: float,
                    inbox: Optional[Dict[str, np.ndarray]]) -> None:
        self.conn.send(("window", frontier, inbox))

    def collect(self) -> dict:
        return self._expect("report")

    def finish(self) -> dict:
        self.conn.send(("finish",))
        return self._expect("harvest")

    def stop(self) -> None:
        try:
            if self.process.is_alive():
                self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5.0)


class _SerialShardWorker:
    """In-process twin of the worker protocol (debugging, single-core CI).

    Produces results identical to the process transport: the shard engines
    accumulate into local stats either way and the driver performs the same
    merge.
    """

    def __init__(self, fabric, partition: Partition, shard: int,
                 pending: Dict[str, np.ndarray], slots: np.ndarray):
        self.shard = shard
        self.engine = _ShardCohortEngine(fabric, partition, shard)
        self.engine.load(pending, slots)
        self._report: Optional[dict] = None

    def send_window(self, frontier: float,
                    inbox: Optional[Dict[str, np.ndarray]]) -> None:
        self._report = self.engine.advance_window(frontier, inbox)

    def collect(self) -> dict:
        report, self._report = self._report, None
        assert report is not None
        return report

    def finish(self) -> dict:
        return self.engine.harvest()

    def stop(self) -> None:
        pass


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class ShardedEngine:
    """Partition, spawn, window-synchronize, and deterministically merge."""

    def __init__(self, fabric):
        _check_columnar_marking(fabric.marking)
        self.fabric = fabric
        self.sim = fabric.sim
        self.shards = int(fabric.shards)
        self.partition = partition_topology(fabric.topology, self.shards)
        cfg = fabric.config
        header_hold = IPHeader.HEADER_BYTES / cfg.link_bandwidth
        self.round_delta = cfg.routing_delay + header_hold + cfg.link_latency
        self.mode = self._resolve_mode(getattr(fabric, "shard_mode", None))
        self.windows = 0
        self._reports: List[dict] = []
        #: rows this engine runs; ShardedFabric refuses any captured later
        self.captured = len(fabric.log)

    @staticmethod
    def _resolve_mode(requested: Optional[str]) -> str:
        if requested is None:
            requested = os.environ.get("REPRO_SHARDED_MODE") or "auto"
        if requested == "auto":
            return ("process"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else "serial")
        if requested not in ("process", "serial"):
            raise ConfigurationError(
                f"shard mode must be 'process', 'serial', or 'auto', "
                f"got {requested!r}")
        if requested == "process" \
                and "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "shard mode 'process' needs the fork start method; "
                "use shard mode 'serial' on this platform")
        return requested

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run the captured traffic to completion across all shards.

        Slices the injection log by owning shard, starts one worker per
        shard, then drives conservative one-round windows — advance all
        shards, route boundary rows, repeat — until no rows are pending
        or in flight anywhere. Harvested per-shard results are merged
        deterministically (see ``_merge``).
        """
        fabric = self.fabric
        sim = self.sim
        watchdog = sim.watchdog
        if watchdog is not None:
            watchdog.start()
        profiler = sim.profile
        pending = fabric.log.columns()
        times = pending["times"]
        total = times.size
        if total == 0:
            return
        owner = self.partition.shard_of[pending["nodes"]]
        shard_slices = []
        for shard in range(self.shards):  # per-shard, once per run  # repro-lint: disable=H3
            shard_slices.append((pending, np.flatnonzero(owner == shard)))

        timeout = None
        if watchdog is not None and watchdog.wall_clock_limit is not None:
            timeout = float(watchdog.wall_clock_limit) + _TIMEOUT_GRACE
        workers = self._start_workers(shard_slices, timeout)
        try:
            frontier = float(times[0])
            gnext = 0
            live = 0
            inboxes: Dict[int, Optional[Dict[str, np.ndarray]]] = {
                shard: None for shard in range(self.shards)}
            while gnext < total or live:  # per-window loop  # repro-lint: disable=H3
                if watchdog is not None:
                    watchdog.check_stall(sim)
                if live == 0 and gnext < total:
                    # Idle gap: jump the frontier to the next injection,
                    # exactly like the single-process round loop.
                    frontier = max(frontier, float(times[gnext]))
                if profiler is not None:
                    profiler.record_batch_advance(
                        self._exchange, workers, frontier, inboxes)
                else:
                    self._exchange(workers, frontier, inboxes)
                reports = self._reports
                inboxes, sent = self._route_outboxes(reports)
                live = sum(r["live"] for r in reports) + sent
                gnext = int(np.searchsorted(times, frontier, side="right"))
                sim.events_executed += 1
                self.windows += 1
                if profiler is not None:
                    idle = sum(1 for r in reports
                               if not r["progressed"] and r["live"] == 0)
                    profiler.record_shard_window(sent, idle)
                if not any(r["progressed"] for r in reports):
                    raise SimulationError(
                        f"sharded engine stalled at window {self.windows} "
                        f"with {live} live rows (internal invariant broken)")
                frontier += self.round_delta
            harvests = [worker.finish() for worker in workers]
        finally:
            for worker in workers:  # per-shard, once per run  # repro-lint: disable=H3
                worker.stop()
        self._merge(harvests, frontier)

    # ------------------------------------------------------------------
    def _start_workers(self, shard_slices, timeout: Optional[float]) -> list:
        fabric = self.fabric
        workers: list = []
        if self.mode == "serial":
            for shard, (pending, slots) in enumerate(shard_slices):  # per-shard, once per run  # repro-lint: disable=H3
                workers.append(_SerialShardWorker(
                    fabric, self.partition, shard, pending, slots))
            return workers
        ctx = multiprocessing.get_context("fork")
        try:
            for shard, (pending, slots) in enumerate(shard_slices):  # per-shard, once per run  # repro-lint: disable=H3
                workers.append(_ProcessShardWorker(
                    ctx, fabric, self.partition, shard, pending, slots,
                    timeout))
        except BaseException:
            for worker in workers:  # per-shard cleanup  # repro-lint: disable=H3
                worker.stop()
            raise
        return workers

    def _exchange(self, workers, frontier: float,
                  inboxes) -> Tuple[int, int]:
        """Dispatch one window to every worker, then collect in shard order.

        Sending everything before collecting anything is where the
        multi-process parallelism happens: all K workers advance their
        rounds concurrently. Returns the fleet's rows moved and parked.
        """
        for worker in workers:  # per-shard, once per window  # repro-lint: disable=H3
            worker.send_window(frontier, inboxes[worker.shard])
        self._reports = reports = [worker.collect() for worker in workers]
        return (sum(r["moved"] for r in reports),
                sum(r["parked"] for r in reports))

    @staticmethod
    def _route_outboxes(reports) -> Tuple[dict, int]:
        """Concatenate every shard's outboxes into per-destination inboxes.

        Senders merge in ascending shard order — deterministic, and
        irrelevant to results: absorbed rows land at their slots, admission
        orders by slot and the sink merge by (time, round, slot), so inbox
        concatenation order can never reach an observable.
        """
        gathered: Dict[int, List[Dict[str, np.ndarray]]] = {}
        sent = 0
        for report in reports:  # per-shard, once per window  # repro-lint: disable=H3
            for dest, columns in sorted(report["outboxes"].items()):  # per-peer-shard  # repro-lint: disable=H3
                gathered.setdefault(dest, []).append(columns)
                sent += int(columns["pos"].size)
        inboxes: Dict[int, Optional[Dict[str, np.ndarray]]] = {}
        for dest, parts in gathered.items():  # per-peer-shard, once per window  # repro-lint: disable=H3
            if len(parts) == 1:
                inboxes[dest] = parts[0]
            else:
                inboxes[dest] = {
                    name: np.concatenate([part[name] for part in parts])
                    for name in _MIGRATE_COLUMNS}
        for dest in range(len(reports)):  # per-shard, once per window  # repro-lint: disable=H3
            inboxes.setdefault(dest, None)
        return inboxes, sent

    # ------------------------------------------------------------------
    def _merge(self, harvests: List[dict], frontier: float) -> None:
        """Fold every shard's accumulators into the fabric, sinks included."""
        fabric = self.fabric
        sim = self.sim
        nics = fabric.nics
        injected = np.zeros(len(nics), dtype=np.int64)
        delivered = np.zeros(len(nics), dtype=np.int64)
        hop_counts = np.zeros(1, dtype=np.int64)
        for harvest in harvests:  # per-shard, once per run  # repro-lint: disable=H3
            fabric.n_injected += harvest["n_injected"]
            fabric.n_delivered += harvest["n_delivered"]
            fabric.n_dropped += harvest["n_dropped"]
            for reason, count in sorted(harvest["drop_reasons"].items()):  # per-reason, once per run  # repro-lint: disable=H3
                fabric._drop_reasons[reason] = \
                    fabric._drop_reasons.get(reason, 0) + count
            injected += harvest["injected_counts"]
            delivered += harvest["delivered_counts"]
            shard_hops = harvest["hop_counts"]
            if shard_hops.size > hop_counts.size:
                grown = np.zeros(shard_hops.size, dtype=np.int64)
                grown[:hop_counts.size] = hop_counts
                hop_counts = grown
            hop_counts[:shard_hops.size] += shard_hops
            count, mean, m2, lat_min, lat_max = harvest["latency"]
            if count:
                part = WelfordAccumulator()
                part.count = count
                part._mean = mean
                part._m2 = m2
                part.min = lat_min
                part.max = lat_max
                fabric.latency = fabric.latency.merge(part)
        for node in np.flatnonzero(injected).tolist():  # per-node, once per run  # repro-lint: disable=H3
            nics[node].n_injected += int(injected[node])
        for node in np.flatnonzero(delivered).tolist():  # per-node, once per run  # repro-lint: disable=H3
            nics[node].n_delivered += int(delivered[node])
        for value in np.flatnonzero(hop_counts).tolist():  # per-value, once per run  # repro-lint: disable=H3
            fabric.hop_histogram.add(int(value), int(hop_counts[value]))

        sinks = [harvest["sink"] for harvest in harvests
                 if harvest["sink"] is not None]
        if sinks:
            columns = [np.concatenate(parts) for parts in zip(*sinks)]
            nodes, sink_times = columns[0], columns[1]
            sink_slots, sink_rounds = columns[8], columns[9]
            # The single-process engine flushes each ring stable-sorted by
            # time over (round, slot) accumulation order; lexsort with time
            # primary, round secondary, slot tertiary reproduces it exactly.
            order = np.lexsort((sink_slots, sink_rounds, sink_times))
            columns = [column[order] for column in columns]
            nodes, sink_times = columns[0], columns[1]
            for ring in fabric._delivery_sinks:  # per-sink, once per run  # repro-lint: disable=H3
                rows = np.flatnonzero(nodes == ring.node)
                ring.extend(sink_times[rows], columns[2][rows],
                            columns[3][rows], columns[4][rows],
                            columns[5][rows], columns[6][rows],
                            columns[7][rows])
        max_time = max((harvest["max_time"] for harvest in harvests),
                       default=sim.now)
        sim.now = max(sim.now, max_time, frontier)
