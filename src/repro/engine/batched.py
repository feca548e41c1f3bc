"""Batched cohort-advance engine: vectorized route/mark/TTL per round.

The exact engine executes one discrete event per packet per hop stage;
Python dispatch dominates at scale. This engine advances the *whole live
cohort* one hop per round with numpy column operations. Rows live in a
slot store indexed by activation rank and never move; each round touches
only the *moving* rows (just activated or just advanced), while rows
waiting for a channel stay *parked* as sorted ``chan << 32 | slot`` keys:

1. **activate** — injections whose time fell below the round frontier join
   the moving set (the scheme's ``inject_array`` words, TTL, VCT injection
   overhead);
2. **retire** — moving rows at their destination deliver (bulk statistics,
   columnar :class:`~repro.network.markstream.DeliveryRing` feed); moving
   rows over the watchdog hop ceiling or out of TTL drop with counted
   reasons. Parked rows cannot retire: nothing they are checked on has
   changed since the round that routed them;
3. **route** — next-hop candidates come from the router's
   :class:`~repro.routing.plan.RouteTable`, the one table the exact engine
   reads too: filled once per distinct (node, destination) pair (in bulk by
   coordinate arithmetic for minimal routers) and replayed as padded
   candidate arrays;
4. **select** — vectorized selection-policy twins; congestion and random
   tie-breaks draw from one dedicated per-cohort RNG stream
   (``"batched-cohort"``), so runs are deterministic per seed;
5. **admit** — the freshly routed keys merge into the sorted parked keys
   (``searchsorted`` + ``insert``); the first ``buffer_capacity`` keys of
   each channel — the lowest ranks, so waiting rows outrank newcomers —
   enter the channel. The rest stay parked, pay the round's deferred
   time, and feed the congestion signal. Cost per round: O(moved) fancy
   indexing plus O(parked) contiguous array passes;
6. **advance** — admitted rows, in rank order, decrement TTL, pass
   through the scheme's own columnar hop (``MarkingScheme.on_hop_array``,
   drawing from the ``"batched-marking"`` stream), step to the next node,
   and form the next round's moving set. A scheme whose scalar and
   columnar forms come from different classes is refused at construction.

Determinism contract (DESIGN.md §12): same seed, same config => identical
results, independent of host or run count. Equivalence contract: identical
suspect sets and delivered counts to the exact engine wherever the
per-packet schedule cannot influence outcomes (deterministic routing +
deterministic marking, and DDPM under *any* routing — its telescoping
offsets make the delivered word a pure function of source and destination);
statistically equivalent elsewhere (probabilistic marking, adaptive
tie-breaks, latency timing).

Per-row Python work is banned here by lint rule H3
(``no-per-packet-python-in-batched-path``); the loops below are per-round,
per-unique-key, or per-run and carry audited suppressions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.network.flowcontrol import VirtualCutThrough
from repro.network.ip import IPHeader
from repro.routing.plan import route_table
from repro.routing.selection import (FirstCandidatePolicy,
                                     LeastCongestedPolicy, RandomPolicy)

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.colqueue import BatchedFabric

__all__ = ["CohortEngine"]


def _check_columnar_marking(scheme) -> None:
    """Refuse a marking scheme whose cohort hop would not be its own.

    The scalar and columnar forms of each switch-side method must come
    from one class. A subclass that overrides only ``on_hop`` or
    ``on_inject`` (``ddpm-auth``'s MAC trail, ``hddpm``'s hierarchy tags)
    would otherwise run its parent's array form and silently lose its own
    marking. ``None`` (no scheme) leaves the MF words at zero.
    """
    if scheme is None:
        return
    mro = type(scheme).__mro__
    for scalar, array in (("on_inject", "inject_array"),
                          ("on_hop", "on_hop_array")):
        owner = next(cls for cls in mro if scalar in vars(cls))
        twin = next((cls for cls in mro if array in vars(cls)), None)
        if twin is not owner:
            where = "nowhere" if twin is None else f"in {twin.__name__}"
            raise ConfigurationError(
                f"marking scheme {scheme.name!r} defines {scalar} in "
                f"{owner.__name__} but {array} {where}; the batched engines "
                "need both forms from one class; use engine='exact'"
            )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
#: per-row state the engine writes, stored by slot (= activation rank)
_STORE_COLUMNS = ("pos", "words", "ttls", "hops", "time", "t0", "hold")
_STORE_DTYPES = (np.int64, np.int64, np.int64, np.int64, np.float64,
                 np.float64, np.float64)

#: low half of a parked key ``chan << 32 | slot``
_SLOT_MASK = (1 << 32) - 1


class CohortEngine:
    """Advance a :class:`~repro.network.colqueue.BatchedFabric`'s captured
    injections to completion, one cohort-hop round per iteration."""

    def __init__(self, fabric: "BatchedFabric"):
        _check_columnar_marking(fabric.marking)
        self.fabric = fabric
        self.sim = fabric.sim
        topology = fabric.topology
        self.n = topology.num_nodes
        cfg = fabric.config
        router = fabric.router
        routes = route_table(router, topology)
        if routes is None:
            # Valiant detours, odd-even's turn history and misrouting around
            # faults depend on per-packet route state the cohorts do not carry.
            raise ConfigurationError(
                f"router {router.name!r} is not supported by the batched "
                "engine"
                + (" on a fabric with failed links (misrouting needs "
                   "per-packet state); minimal-adaptive handles static "
                   "faults" if topology.links.failed_links else
                   " (per-packet route state has no columnar twin)")
                + "; use engine='exact'"
            )
        self.routes = routes
        self.marking = fabric.marking
        self.rng = self.sim.rng.stream("batched-cohort")
        # Marking draws (PPM coins and fragment offsets) get their own
        # stream: selection and marking then own one stream each.
        self.marking_rng = self.sim.rng.stream("batched-marking")
        self.quota = cfg.buffer_capacity
        self.default_ttl = cfg.default_ttl
        # Statistics target: the fabric itself for the global engine. Shard
        # workers swap in a local accumulator so per-shard deltas can be
        # merged once by the driving process (identically in serial and
        # multi-process execution).
        self._stats = fabric

        selection = fabric.selection
        if isinstance(selection, LeastCongestedPolicy):
            self.mode = "congestion"
        elif isinstance(selection, RandomPolicy):
            self.mode = "random"
        elif isinstance(selection, FirstCandidatePolicy):
            self.mode = "first"
        else:
            raise ConfigurationError(
                f"selection policy {type(selection).__name__} has no "
                "vectorized twin; use engine='exact'"
            )

        bandwidth = cfg.link_bandwidth
        self._vct = isinstance(fabric.service, VirtualCutThrough)
        header_hold = IPHeader.HEADER_BYTES / bandwidth
        self._bandwidth = bandwidth
        # One cohort hop: switch pipeline + serialization hold + wire time.
        self.round_delta = cfg.routing_delay + header_hold + cfg.link_latency

        # Slot store: each row lives at its slot — its global activation
        # rank, the index in the time-sorted capture — from activation to
        # retirement, so rows never move. Per-row state the engine writes
        # sits in the _STORE_COLUMNS arrays (sized to the capture by
        # _install); the read-only columns (destination node, header
        # addresses, packet id) are the capture's own.
        for name, dtype in zip(_STORE_COLUMNS, _STORE_DTYPES):
            setattr(self, name, np.empty(0, dtype=dtype))
        self.dst = np.empty(0, dtype=np.int64)
        self.src_ip = np.empty(0, dtype=np.int64)
        self.dst_ip = np.empty(0, dtype=np.int64)
        self.ids = np.empty(0, dtype=np.int64)
        # Live rows are either moving or parked. Moving: the rank-sorted
        # slots just activated or just advanced; only these are retired,
        # routed and selected. Parked: rows routed onto a channel and
        # waiting for its credit, as sorted keys ``chan << 32 | slot``, so
        # each channel's queue is contiguous and in rank order.
        self._moving = np.empty(0, dtype=np.int64)
        self._parked = np.empty(0, dtype=np.int64)

        # Physical channel ids: chan = node * width + port, where port is
        # the neighbor's index in topology.neighbors(node). Candidate-table
        # columns are destination-relative and would conflate channels.
        # ``_next_hop`` inverts the map: channel -> the node it leads to.
        self.width = routes.width
        self._port = np.full(self.n * self.n, -1, dtype=np.int8)
        self._next_hop = np.full(self.n * self.width, -1, dtype=np.int64)
        for node in topology.nodes():  # per-(node, port), once at build
            for port, neighbor in enumerate(topology.neighbors(node)):
                self._port[node * self.n + neighbor] = port
                self._next_hop[node * self.width + port] = neighbor

        # Per-round congestion signal: rows deferred last round, per channel.
        self._backlog = np.zeros(self.n * self.width, dtype=np.float64)

        # Segment accumulators, flushed at each advance() boundary (once per
        # run for the classic drain-to-completion call).
        self._delivered_counts = np.zeros(self.n, dtype=np.int64)
        self._hop_counts = np.zeros(64, dtype=np.int64)
        self._sink_mask = np.zeros(self.n, dtype=bool)
        self._refresh_sinks()
        self._sink_rows: List[Tuple[np.ndarray, ...]] = []
        self._max_time = self.sim.now
        self._progressed = False
        self.rounds = 0

        # Persistent-run state: the engine survives across advance() calls so
        # run_until can cut a run into segments with live rows carried over.
        # ``_slots`` lists the slots this engine activates, in activation
        # order, and ``_times`` their injection times.
        self._pending: Optional[dict] = None
        self._slots = np.empty(0, dtype=np.int64)
        self._times = np.empty(0, dtype=np.float64)
        self._next = 0
        self._flushed_next = 0
        self._started = False
        self.frontier = float(self.sim.now)

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drain all captured injections; raises on stalls via the watchdog."""
        self.advance(None)

    def live(self) -> int:
        """Rows in flight: moving plus parked."""
        return int(self._moving.size + self._parked.size)

    def advance(self, until: Optional[float]) -> None:
        """Advance cohorts through every round whose frontier is <= ``until``
        (``None`` = to completion), then flush a clean segment boundary.

        The cut is clean because under virtual cut-through every live row's
        lag behind the frontier is fixed at activation and stays in
        ``[0, round_delta)``: deliveries flushed before the cut all carry
        times <= the last frontier run, deliveries after it strictly greater,
        so concatenating per-segment flushes reproduces the single-run stream
        bit for bit (the DeliveryRing/MarkBatch prefix-composability
        contract). Store-and-forward holds vary per row, the lag drifts, and
        the argument breaks — refused below.
        """
        if until is not None and not self._vct:
            raise ConfigurationError(
                "run_until needs the virtual-cut-through service model (the "
                "partial-horizon cut relies on its fixed per-row lag); "
                "store-and-forward runs require engine='exact'"
            )
        sim = self.sim
        watchdog = sim.watchdog
        if watchdog is not None:
            watchdog.start()
        profiler = sim.profile
        self._refresh_pending()
        self._refresh_sinks()
        pending_times = self._times
        total = pending_times.size
        if not self._started and total:
            self.frontier = float(pending_times[0])
            self._started = True
        while self._next < total or self.live():  # per-round loop  # repro-lint: disable=H3
            if until is not None:
                eff = self.frontier
                if not self.live() and self._next < total:
                    eff = max(eff, float(pending_times[self._next]))
                if eff > until:
                    break
            if watchdog is not None:
                watchdog.check_stall(sim)
            self._progressed = False
            if profiler is not None:
                profiler.record_batch_advance(self._round)
            else:
                self._round()
            sim.events_executed += 1
            self.rounds += 1
            if not self._progressed:
                raise SimulationError(
                    f"batched engine stalled at round {self.rounds} with "
                    f"{self.live()} live rows (internal invariant broken)"
                )
        self._flush(until)

    def _refresh_pending(self) -> None:
        """(Re-)snapshot the injection log as time-sorted pending columns.

        Injections captured between advance() segments are folded in as long
        as they do not rewrite the already-consumed prefix (traffic scheduled
        at or before times the engine has advanced past has no sound replay).
        The consumed prefix keeps its slots, so live rows stay put.
        """
        log = self.fabric.log
        if self._pending is not None \
                and len(log) == self._pending["times"].size:
            return
        pending = log.columns()
        if self._pending is not None and self._next:
            old_ids = self._pending["ids"][:self._next]
            if pending["ids"].size < self._next \
                    or not np.array_equal(pending["ids"][:self._next],
                                          old_ids):
                raise ConfigurationError(
                    "injections were captured at or before times the batched "
                    "engine already advanced past; schedule follow-up "
                    "traffic beyond the current frontier or use "
                    "engine='exact'"
                )
        self._install(pending,
                      np.arange(pending["times"].size, dtype=np.int64))

    def _install(self, pending: Dict[str, np.ndarray],
                 slots: np.ndarray) -> None:
        """Adopt ``pending`` (the whole time-sorted capture, indexed by
        slot) and activate the rows at ``slots`` in that order.

        The slot store grows to the capture's size, keeping every slot
        already written.
        """
        size = pending["times"].size
        for name in _STORE_COLUMNS:  # per-column, once per segment  # repro-lint: disable=H3
            old = getattr(self, name)
            column = np.empty(size, dtype=old.dtype)
            column[:old.size] = old
            setattr(self, name, column)
        self.dst = pending["dests"]
        self.src_ip = pending["sources"]
        self.dst_ip = pending["dst_ips"]
        self.ids = pending["ids"]
        self._pending = pending
        self._slots = slots
        self._times = pending["times"][slots]

    def _refresh_sinks(self) -> None:
        """Mark the nodes with a delivery ring attached, once per segment."""
        self._sink_mask[:] = False
        self._sink_mask[np.array(
            [ring.node for ring in self.fabric._delivery_sinks],
            dtype=np.int64)] = True

    # ------------------------------------------------------------------
    def _round(self) -> Tuple[int, int]:
        if not self.live() and self._next < self._times.size:
            # Idle gap: jump the frontier straight to the next injection.
            self.frontier = max(self.frontier,
                                float(self._times[self._next]))
        counts = self._step()
        self.frontier += self.round_delta
        return counts

    def _step(self) -> Tuple[int, int]:
        """One cohort round at the current frontier: activate, retire,
        route/admit/advance. Shared verbatim with the sharded workers, which
        control the frontier externally. Returns the rows moved (retired,
        routed and selected) and the rows left parked."""
        end = int(np.searchsorted(self._times, self.frontier, side="right"))
        if end > self._next:
            self._activate(self._next, end)
            self._next = end
            self._progressed = True
        moved = int(self._moving.size)
        if moved:
            self._retire()
        if self._moving.size or self._parked.size:
            self._route_and_advance()
        return moved, int(self._parked.size)

    def _activate(self, lo: int, hi: int) -> None:
        pending = self._pending
        slots = self._slots[lo:hi]
        m = hi - lo
        times = pending["times"][slots]
        if self._vct:
            # VCT charges the payload serialization once at injection.
            times = times + np.maximum(
                pending["sizes"][slots] - IPHeader.HEADER_BYTES,
                0) / self._bandwidth
            hold = IPHeader.HEADER_BYTES / self._bandwidth
        else:
            hold = pending["sizes"][slots] / self._bandwidth
        self.pos[slots] = pending["nodes"][slots]
        self.words[slots] = (0 if self.marking is None
                             else self.marking.inject_array(m))
        self.ttls[slots] = self.default_ttl
        self.hops[slots] = 0
        self.time[slots] = times
        self.t0[slots] = times
        self.hold[slots] = hold
        # Activation ranks exceed every live rank (the capture is
        # time-sorted and the frontier only advances), so appending keeps
        # the moving set sorted.
        self._moving = np.concatenate([self._moving, slots])
        self._stats.n_injected += m

    def _retire(self) -> None:
        # Delivery first, then hop-ceiling, then TTL — the exact switch's
        # dispatch order (the masks are disjoint by construction, so one
        # combined filter pass preserves the per-reason accounting). Parked
        # rows cannot retire: their pos, ttls and hops are unchanged since
        # the round that routed them passed this check.
        moving = self._moving
        done = self.pos[moving] == self.dst[moving]
        gone = done
        retired = False
        if done.any():
            self._deliver(moving[done])
            retired = True
        ceiling = self.fabric.hop_ceiling
        if ceiling is not None:
            hops = self.hops[moving]
            over = ~gone & (hops >= ceiling)
            if over.any():
                k = int(np.count_nonzero(over))
                self._drop(k, "livelock")
                watchdog = self.sim.watchdog
                if watchdog is not None:
                    # Bulk twin of note_livelock: count all k, fire once
                    # past tolerance.
                    watchdog.livelocked_packets += k - 1
                    watchdog.note_livelock(self.sim, int(hops[over].max()))
                gone = gone | over
                retired = True
        dead = ~gone & (self.ttls[moving] <= 1)
        if dead.any():
            self._drop(int(np.count_nonzero(dead)), "ttl_expired")
            gone = gone | dead
            retired = True
        if retired:
            self._moving = moving[~gone]
            self._progressed = True

    def _deliver(self, slots: np.ndarray) -> None:
        nodes = self.pos[slots]
        times = self.time[slots]
        self._stats.n_delivered += slots.size
        self._delivered_counts += np.bincount(nodes, minlength=self.n)
        self._stats.latency.add_array(times - self.t0[slots])
        hops = self.hops[slots]
        counts = np.bincount(hops, minlength=self._hop_counts.size)
        if counts.size > self._hop_counts.size:
            counts[:self._hop_counts.size] += self._hop_counts
            self._hop_counts = counts
        else:
            self._hop_counts += counts
        self._max_time = max(self._max_time, float(times.max()))
        sunk = self._sink_mask[nodes]
        if sunk.any():
            rows = slots[sunk]
            # The trailing (slot, round) pair is merge metadata: the
            # single-process flush ignores it, the sharded driver lexsorts
            # on (time, round, slot) to reproduce this engine's
            # accumulation order across shards.
            self._sink_rows.append(
                (nodes[sunk], times[sunk], self.src_ip[rows],
                 self.dst_ip[rows], self.words[rows], self.ttls[rows],
                 hops[sunk], self.ids[rows], rows,
                 np.full(rows.size, self.rounds, dtype=np.int64)))

    def _drop(self, count: int, reason: str) -> None:
        stats = self._stats
        stats.n_dropped += count
        stats._drop_reasons[reason] = \
            stats._drop_reasons.get(reason, 0) + count

    # ------------------------------------------------------------------
    def _route_and_advance(self) -> None:
        # Route and select only the moving rows; parked rows keep their
        # channel across rounds, like a queued packet holding its output in
        # the exact engine.
        moving = self._moving
        if moving.size:
            pos = self.pos[moving]
            candidates, degrees = self.routes.lookup(pos, self.dst[moving])
            blocked = degrees == 0
            if blocked.any():
                self._drop(int(np.count_nonzero(blocked)), "unroutable")
                self._progressed = True
                routable = ~blocked
                moving = moving[routable]
                pos = pos[routable]
                candidates = candidates[routable]
                degrees = degrees[routable]
            if moving.size:
                cols = self._choose(pos, candidates, degrees)
                nxt = candidates[np.arange(moving.size), cols]
                chan = pos * self.width + self._port[pos * self.n + nxt]
                keys = np.sort((chan << 32) | moving)
                parked = self._parked
                self._parked = np.insert(
                    parked, np.searchsorted(parked, keys), keys)
        parked = self._parked
        if not parked.size:  # every moving row was unroutable
            self._moving = moving
            return

        # Credit-based admission: buffer_capacity rows per directed channel
        # per round, lowest rank first — waiting rows outrank newcomers. A
        # key is among the first ``quota`` of its channel group iff the key
        # ``quota`` places earlier belongs to another channel.
        quota = self.quota
        chan = parked >> 32
        admit = np.ones(parked.size, dtype=bool)
        if parked.size > quota:
            np.not_equal(chan[quota:], chan[:-quota], out=admit[quota:])
        moved = parked[admit]
        self._parked = waiting = parked[~admit]
        # The rest wait a round — eagerly charged, so float sums match a
        # row-by-row schedule — and become the congestion signal.
        if waiting.size:
            self.time[waiting & _SLOT_MASK] += self.round_delta
        if self.mode == "congestion":
            self._backlog = np.bincount(
                chan[~admit], minlength=self._backlog.size).astype(np.float64)

        # Admitted rows hop in rank order (the marking draws follow it).
        flipped = np.sort(((moved & _SLOT_MASK) << 32) | (moved >> 32))
        slots = flipped >> 32
        nxt = self._next_hop[flipped & _SLOT_MASK]
        ttls = self.ttls[slots] - 1
        self.ttls[slots] = ttls
        if self.marking is not None:
            self.words[slots] = self.marking.on_hop_array(
                self.words[slots], self.pos[slots], nxt, ttls,
                self.marking_rng)
        self.hops[slots] += 1
        cfg = self.fabric.config
        self.time[slots] += (cfg.routing_delay + self.hold[slots]
                             + cfg.link_latency)
        self.pos[slots] = nxt
        self._moving = slots
        self._progressed = True

    def _choose(self, sub_pos: np.ndarray, candidates: np.ndarray,
                degrees: np.ndarray) -> np.ndarray:
        """Column index of the chosen candidate, per fresh row."""
        m = degrees.size
        if self.mode == "first" or candidates.shape[1] == 1:
            return np.zeros(m, dtype=np.int64)
        if self.mode == "random":
            return (self.rng.random(m) * degrees).astype(np.int64)
        # Least-congested: last round's deferred-row backlog per candidate
        # channel, tie-broken by a sub-1.0 jitter draw (the vectorized twin
        # of LeastCongestedPolicy's seeded random tie-break).
        width = candidates.shape[1]
        ports = self._port[sub_pos[:, None] * self.n + candidates]
        score = self._backlog[sub_pos[:, None] * self.width + ports] \
            + self.rng.random((m, width))
        score[candidates < 0] = np.inf
        return np.argmin(score, axis=1)

    # ------------------------------------------------------------------
    def _flush(self, until: Optional[float]) -> None:
        """Write segment accumulators back to the fabric and reset them.

        Called once per advance() call; the classic drain-to-completion run
        hits it exactly once. Per-ring rows are stable-sorted by time inside
        the segment; segments never interleave in time (the clean-cut
        invariant), so repeated flushes concatenate into the same stream a
        single full run produces.
        """
        fabric = self.fabric
        sim = self.sim
        nics = fabric.nics
        if self._next > self._flushed_next:
            nodes = self._pending["nodes"][
                self._slots[self._flushed_next:self._next]]
            injected = np.bincount(nodes, minlength=self.n)
            for node in np.flatnonzero(injected).tolist():  # per-node, once per segment  # repro-lint: disable=H3
                nics[node].n_injected += int(injected[node])
            self._flushed_next = self._next
        if self._delivered_counts.any():
            for node in np.flatnonzero(self._delivered_counts).tolist():  # per-node, once per segment  # repro-lint: disable=H3
                nics[node].n_delivered += int(self._delivered_counts[node])
            self._delivered_counts[:] = 0
        if self._hop_counts.any():
            for value in np.flatnonzero(self._hop_counts).tolist():  # per-value, once per segment  # repro-lint: disable=H3
                fabric.hop_histogram.add(int(value),
                                         int(self._hop_counts[value]))
            self._hop_counts[:] = 0
        if self._sink_rows:
            columns = [np.concatenate(parts)
                       for parts in zip(*self._sink_rows)]
            nodes, times = columns[0], columns[1]
            for ring in fabric._delivery_sinks:  # per-sink, once per segment  # repro-lint: disable=H3
                rows = np.flatnonzero(nodes == ring.node)
                rows = rows[np.argsort(times[rows], kind="stable")]
                ring.extend(times[rows], columns[2][rows], columns[3][rows],
                            columns[4][rows], columns[5][rows],
                            columns[6][rows], columns[7][rows])
            self._sink_rows = []
        if until is None:
            sim.now = max(sim.now, self._max_time, self.frontier)
        else:
            sim.now = max(sim.now, until)
