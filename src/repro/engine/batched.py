"""Batched cohort-advance engine: vectorized route/mark/hop per round.

The exact engine executes one discrete event per packet per hop stage;
Python dispatch dominates at scale. This engine advances the *whole live
cohort* one hop per round with numpy column operations. Rows live in a
slot store indexed by activation rank and never move; each round touches
only the *moving* rows (just activated or just advanced), while rows
waiting for a channel stay *parked* as sorted ``chan << 32 | slot`` keys:

1. **activate** — injections whose time fell below the round frontier join
   the moving set (zero hops, VCT injection overhead, and the scheme's
   ``inject_array`` words unless it derives them, see step 6);
2. **retire** — moving rows at their destination deliver (bulk statistics,
   columnar :class:`~repro.network.markstream.DeliveryRing` feed); moving
   rows over the watchdog hop ceiling or out of TTL drop with counted
   reasons. Every row starts at ``default_ttl``, so its TTL is
   ``default_ttl - hops`` and no TTL column is kept. Parked rows cannot
   retire: nothing they are checked on has changed since the round that
   routed them;
3. **route** — next-hop candidates come from the router's
   :class:`~repro.routing.plan.RouteTable`, the one table the exact engine
   reads too: the router's closed form evaluated once into padded rows of
   moves per (link group, sign class of the minimal offset), indexed per
   round; a row's moves plus ``node * moves`` are the node's candidate
   *channels*, and ``RouteTable.channel_target`` names each one's far end;
4. **select** — vectorized selection-policy twins; congestion and random
   tie-breaks draw from one dedicated per-cohort RNG stream
   (``"batched-cohort"``), so runs are deterministic per seed;
5. **admit** — the freshly routed keys, sorted, are concatenated to the
   sorted parked keys and one stable sort merges the two runs; the first
   ``buffer_capacity`` keys of each channel — the lowest ranks, so
   waiting rows outrank newcomers — enter the channel. The rest stay
   parked, pay the round's deferred time (one add over the slot window
   they span) and feed the congestion signal;
6. **advance** — admitted rows, in rank order, count a hop, pass
   through the scheme's own columnar hop (``MarkingScheme.on_hop_array``,
   drawing from the ``"batched-marking"`` stream), step to the next node,
   and form the next round's moving set. Their time is rewritten from its
   value before the wait charge. A scheme with a path-free word
   (``word_array``: DDPM, whose per-hop deltas telescope) runs no hop at
   all: its words are derived once per run, for the sink rows only, from
   each row's injection node and delivery node.

Cost per round: O(moved) fancy indexing for steps 1-4 and 6, plus about
ten contiguous passes over the parked keys and one over the time
window the waiting rows span (step 5). A delivery keeps only its slots,
its times and the round's latency fold; per-node, hop and sink tallies
are built once per run. Under the paper's flood the parked passes still
dominate: on the 16x16 hotspot about 57 rows move per round against
~7,900 parked, so a round costs what waits, in fast passes, not what
moves (DESIGN.md §12 has the section times).

Determinism contract (DESIGN.md §12): same seed, same config => identical
results, independent of host or run count. Equivalence contract: identical
suspect sets and delivered counts to the exact engine wherever the
per-packet schedule cannot influence outcomes (deterministic routing +
deterministic marking, and DDPM under *any* routing — its telescoping
offsets make the delivered word a pure function of source and destination);
statistically equivalent elsewhere (probabilistic marking, adaptive
tie-breaks, latency timing). What it refuses, and which engine to use
instead, is :mod:`repro.engine.contract`'s table; ``admit`` checks a
fabric against it before this engine is built. The engine runs its
capture once, to completion: ``run_until`` and traffic captured after the
run are refused there too.

Per-row Python work is banned here by lint rule H3
(``no-per-packet-python-in-batched-path``); the loops below are per-round,
per-unique-key, or per-run and carry audited suppressions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.engine.contract import selection_mode
from repro.errors import SimulationError
from repro.network.flowcontrol import VirtualCutThrough
from repro.network.ip import IPHeader
from repro.routing.plan import route_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.colqueue import BatchedFabric

__all__ = ["CohortEngine"]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
#: per-row state the engine writes, stored by slot (= activation rank)
_STORE_COLUMNS = ("pos", "words", "hops", "time", "t0", "hold")
_STORE_DTYPES = (np.int64, np.int64, np.int64, np.float64, np.float64,
                 np.float64)

#: low half of a parked key ``chan << 32 | slot``
_SLOT_MASK = (1 << 32) - 1


class CohortEngine:
    """Advance a :class:`~repro.network.colqueue.BatchedFabric`'s captured
    injections to completion, one cohort-hop round per iteration."""

    def __init__(self, fabric: "BatchedFabric"):
        # The fabric passed repro.engine.contract.admit: its router has a
        # route table and its selection policy a vectorized twin.
        self.fabric = fabric
        self.sim = fabric.sim
        topology = fabric.topology
        self.n = topology.num_nodes
        cfg = fabric.config
        self.routes = routes = route_table(fabric.router, topology)
        self.marking = fabric.marking
        # A path-free word (DDPM) is derived at delivery, not carried.
        self.word_array = getattr(self.marking, "word_array", None)
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

        self.mode = selection_mode(fabric.selection)

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

        # Per-round congestion signal: rows deferred last round, per
        # channel (the route table's: ``lookup`` hands out each candidate's
        # channel, ``channel_target`` the node a channel leads to).
        self._backlog = np.zeros(routes.channels, dtype=np.float64)

        # The run's deliveries: each round's slots and times (a wait charge
        # may later touch a retired slot's time) and the round. _tally folds
        # them into per-node, hop and sink columns once, at the end.
        self._delivered_slots: List[np.ndarray] = []
        self._delivered_times: List[np.ndarray] = []
        self._delivered_rounds: List[int] = []
        # The nodes with a delivery ring attached; the engine is built at
        # the run, after every sink.
        self._sink_mask = np.zeros(self.n, dtype=bool)
        self._sink_mask[np.array(
            [ring.node for ring in fabric._delivery_sinks],
            dtype=np.int64)] = True
        self._max_time = self.sim.now
        self._progressed = False
        self.rounds = 0

        # The capture, set by _install: ``_slots`` lists the slots this
        # engine activates, in activation order, ``_times`` their injection
        # times, and ``_next`` counts the activated ones.
        self._pending: Optional[dict] = None
        self._slots = np.empty(0, dtype=np.int64)
        self._times = np.empty(0, dtype=np.float64)
        self._next = 0
        self.frontier = float(self.sim.now)

    # ------------------------------------------------------------------
    def live(self) -> int:
        """Rows in flight: moving plus parked."""
        return int(self._moving.size + self._parked.size)

    def run(self) -> None:
        """Install the fabric's capture and drain it, one round per
        iteration; raises on stalls via the watchdog."""
        sim = self.sim
        watchdog = sim.watchdog
        if watchdog is not None:
            watchdog.start()
        profiler = sim.profile
        pending = self.fabric.log.columns()
        self._install(pending,
                      np.arange(pending["times"].size, dtype=np.int64))
        total = self._times.size
        if total:
            self.frontier = float(self._times[0])
        while self._next < total or self.live():  # per-round loop  # repro-lint: disable=H3
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
        self._flush()

    def _install(self, pending: Dict[str, np.ndarray],
                 slots: np.ndarray) -> None:
        """Adopt ``pending`` (the whole time-sorted capture, indexed by
        slot) and activate the rows at ``slots`` in that order."""
        size = pending["times"].size
        for name in _STORE_COLUMNS:  # per-column, once per run  # repro-lint: disable=H3
            setattr(self, name,
                    np.empty(size, dtype=getattr(self, name).dtype))
        self.dst = pending["dests"]
        self.src_ip = pending["sources"]
        self.dst_ip = pending["dst_ips"]
        self.ids = pending["ids"]
        self._pending = pending
        self._slots = slots
        self._times = pending["times"][slots]

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
        if self.marking is None:
            self.words[slots] = 0
        elif self.word_array is None:
            self.words[slots] = self.marking.inject_array(m)
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
        # rows cannot retire: their pos and hops are unchanged since the
        # round that routed them passed this check.
        moving = self._moving
        done = self.pos[moving] == self.dst[moving]
        hops = self.hops[moving]
        gone = done
        retired = False
        if done.any():
            self._deliver(moving[done])
            retired = True
        ceiling = self.fabric.hop_ceiling
        if ceiling is not None:
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
        # TTL = default_ttl - hops; a row at TTL 1 or less expires.
        dead = ~gone & (hops >= self.default_ttl - 1)
        if dead.any():
            self._drop(int(np.count_nonzero(dead)), "ttl_expired")
            gone = gone | dead
            retired = True
        if retired:
            self._moving = moving[~gone]
            self._progressed = True

    def _deliver(self, slots: np.ndarray) -> None:
        # The latency fold stays per round: its merge order is in the
        # result. Everything else is tallied once per run.
        times = self.time[slots]
        self._stats.n_delivered += slots.size
        self._stats.latency.add_array(times - self.t0[slots])
        self._delivered_slots.append(slots)
        self._delivered_times.append(times)
        self._delivered_rounds.append(self.rounds)

    def _tally(self) -> Tuple[np.ndarray, np.ndarray,
                              Optional[Tuple[np.ndarray, ...]]]:
        """Fold the run's deliveries, in delivery order:
        per-node delivered counts, per-hop-count counts and the sink rows'
        columns (None when no row reached a sink); raises ``_max_time``.

        A delivered slot's position, word and hops are never written
        again, so they are read here; its time was kept at delivery. Its
        TTL is ``default_ttl - hops``; a path-free word (``word_array``)
        is derived here from the row's injection and delivery nodes.
        """
        slots = np.concatenate(self._delivered_slots
                               or [np.empty(0, dtype=np.int64)])
        times = np.concatenate(self._delivered_times
                               or [np.empty(0, dtype=np.float64)])
        rounds = np.repeat(np.array(self._delivered_rounds, dtype=np.int64),
                           [part.size for part in self._delivered_slots])
        self._delivered_slots, self._delivered_times = [], []
        self._delivered_rounds = []
        nodes = self.pos[slots]
        hops = self.hops[slots]
        if times.size:
            self._max_time = max(self._max_time, float(times.max()))
        sink = None
        sunk = self._sink_mask[nodes]
        if sunk.any():
            rows = slots[sunk]
            sunk_nodes, sunk_hops = nodes[sunk], hops[sunk]
            words = (self.words[rows] if self.word_array is None
                     else self.word_array(self._pending["nodes"][rows],
                                          sunk_nodes))
            # The trailing (slot, round) pair is merge metadata: the
            # single-process flush ignores it, the sharded driver lexsorts
            # on (time, round, slot) to reproduce this engine's
            # accumulation order across shards.
            sink = (sunk_nodes, times[sunk], self.src_ip[rows],
                    self.dst_ip[rows], words, self.default_ttl - sunk_hops,
                    sunk_hops, self.ids[rows], rows, rounds[sunk])
        return np.bincount(nodes, minlength=self.n), np.bincount(hops), sink

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
        parked = self._parked
        if moving.size:
            channels, degrees = self.routes.lookup(self.pos[moving],
                                                   self.dst[moving])
            blocked = degrees == 0
            if blocked.any():
                self._drop(int(np.count_nonzero(blocked)), "unroutable")
                self._progressed = True
                routable = ~blocked
                moving = moving[routable]
                channels = channels[routable]
                degrees = degrees[routable]
            if moving.size:
                cols = self._choose(channels, degrees)
                chan = channels[np.arange(moving.size), cols]
                # Two sorted runs, the parked keys and the fresh ones: the
                # stable sort (a merge sort) merges them in one pass.
                parked = np.concatenate([parked,
                                         np.sort((chan << 32) | moving)])
                parked.sort(kind="stable")
        if not parked.size:  # every moving row was unroutable
            self._moving = moving
            return

        # Credit-based admission: buffer_capacity rows per directed channel
        # per round, lowest rank first — waiting rows outrank newcomers. A
        # key is among the first ``quota`` of its channel group iff the key
        # ``quota`` places earlier belongs to another channel: their XOR
        # reaches the channel bits.
        quota = self.quota
        head = parked[:quota]
        tail = parked[quota:]
        admit = (tail ^ parked[:-quota]) >= 1 << 32
        moved = np.concatenate([head, tail[admit]])
        self._parked = waiting = tail[~admit]

        # Admitted rows hop in rank order (the marking draws follow it).
        flipped = np.sort(((moved & _SLOT_MASK) << 32) | (moved >> 32))
        slots = flipped >> 32
        before = self.time[slots]
        # The rest wait a round — eagerly charged, so float sums match a
        # row-by-row schedule — and become the congestion signal. One add
        # over the slot window the waiting rows span: the admitted rows in
        # it are rewritten below, and no other live row lies in it.
        if waiting.size:
            waiting_slots = waiting & _SLOT_MASK
            self.time[waiting_slots.min():waiting_slots.max() + 1] += \
                self.round_delta
        if self.mode == "congestion":
            self._backlog = np.bincount(
                waiting >> 32, minlength=self._backlog.size).astype(np.float64)

        nxt = self.routes.channel_target[flipped & _SLOT_MASK]
        hops = self.hops[slots] + 1
        self.hops[slots] = hops
        if self.marking is not None and self.word_array is None:
            self.words[slots] = self.marking.on_hop_array(
                self.words[slots], self.pos[slots], nxt,
                self.default_ttl - hops, self.marking_rng)
        cfg = self.fabric.config
        self.time[slots] = before + (cfg.routing_delay + self.hold[slots]
                                     + cfg.link_latency)
        self.pos[slots] = nxt
        self._moving = slots
        self._progressed = True

    def _choose(self, channels: np.ndarray,
                degrees: np.ndarray) -> np.ndarray:
        """Column index of the chosen candidate, per fresh row."""
        m = degrees.size
        if self.mode == "first" or channels.shape[1] == 1:
            return np.zeros(m, dtype=np.int64)
        if self.mode == "random":
            return (self.rng.random(m) * degrees).astype(np.int64)
        # Least-congested: last round's deferred-row backlog per candidate
        # channel, tie-broken by a sub-1.0 jitter draw (the vectorized twin
        # of LeastCongestedPolicy's seeded random tie-break).
        score = self._backlog[channels] + self.rng.random(channels.shape)
        score[channels < 0] = np.inf
        return np.argmin(score, axis=1)

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Write the run's accumulators back to the fabric, once, at the
        end. Per-ring rows are stable-sorted by time."""
        fabric = self.fabric
        nics = fabric.nics
        injected = np.bincount(self._pending["nodes"], minlength=self.n)
        for node in np.flatnonzero(injected).tolist():  # per-node, once per run  # repro-lint: disable=H3
            nics[node].n_injected += int(injected[node])
        delivered, hop_counts, sink = self._tally()
        for node in np.flatnonzero(delivered).tolist():  # per-node, once per run  # repro-lint: disable=H3
            nics[node].n_delivered += int(delivered[node])
        for value in np.flatnonzero(hop_counts).tolist():  # per-value, once per run  # repro-lint: disable=H3
            fabric.hop_histogram.add(int(value), int(hop_counts[value]))
        if sink is not None:
            nodes, times = sink[0], sink[1]
            for ring in fabric._delivery_sinks:  # per-sink, once per run  # repro-lint: disable=H3
                rows = np.flatnonzero(nodes == ring.node)
                rows = rows[np.argsort(times[rows], kind="stable")]
                ring.extend(times[rows], sink[2][rows], sink[3][rows],
                            sink[4][rows], sink[5][rows], sink[6][rows],
                            sink[7][rows])
        self.sim.now = max(self.sim.now, self._max_time, self.frontier)
