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
   columnar :class:`~repro.network.markstream.DeliveryRing` feed). Every
   row starts at ``default_ttl``, so its TTL is ``default_ttl - hops`` and
   no TTL column is kept; one test, ``hops >= min(hop ceiling,
   default_ttl - 1)``, finds every moving row that drops, and only when
   it fires are the reasons split (watchdog livelock, then TTL). Parked
   rows cannot retire: nothing they are checked on has changed since the
   round that routed them;
3. **route** — next-hop candidates come from the router's
   :class:`~repro.routing.plan.RouteTable`, the one table the exact engine
   reads too: the router's closed form evaluated once into padded rows of
   moves per (link group, sign class of the minimal offset). A round reads
   each moving row's table row and degree; a move plus ``node * moves``
   is a candidate *channel*, and ``RouteTable.channel_target`` names each
   one's far end;
4. **select** — vectorized selection-policy twins choose a column, and
   only the chosen move becomes a channel (least-congested alone builds
   every candidate's channel, to read each one's backlog); congestion and
   random tie-breaks draw from one dedicated per-cohort RNG stream
   (``"batched-cohort"``), so runs are deterministic per seed;
5. **admit** — parked keys sit in two sorted tiers. Every
   ``_HOT_ROUNDS`` (16) rounds a rebalance merges both and leaves each
   channel's first ``16 * buffer_capacity`` keys *hot* and the rest
   *cold*; between rebalances the freshly routed keys, sorted, merge into
   the hot tier alone (one stable sort of two sorted runs). The first
   ``buffer_capacity`` hot keys of each channel — the lowest ranks, so
   waiting rows outrank newcomers — enter the channel: a round admits at
   most that many per channel, so until the next rebalance a channel with
   cold keys keeps enough hot keys below them. The rest stay parked, pay
   the round's deferred time (one add over a kept slot window, from a
   lower bound on the lowest live slot, refreshed at each rebalance, to
   the highest slot activated) and feed the congestion signal;
6. **advance** — admitted rows, in rank order, count a hop, pass
   through the scheme's own columnar hop (``MarkingScheme.on_hop_array``,
   drawing from the ``"batched-marking"`` stream), step to the next node,
   and form the next round's moving set. Their time is rewritten from its
   value before the wait charge. A scheme with a path-free word
   (``word_array``: DDPM, whose per-hop deltas telescope) runs no hop at
   all: its words are derived once per run, for the sink rows only, from
   each row's injection node and delivery node.

Cost per round: O(moved) fancy indexing for steps 1-4 and 6, O(hot) passes
for step 5 and one add over the slot window; the cold tier is passed over
only at a rebalance. A delivery keeps only its slots, its times and the
round's latency fold; per-node, hop and sink tallies are built once per
run. On the 16x16 hotspot about 57 rows move per round and ~270 keys are
hot against ~7,600 cold, so a round is about 76 numpy calls on small
arrays (about 86 before the tiers, ten of them over all ~7,900 parked
keys), and the calls, not the rows, are its cost (DESIGN.md §12 has the
section times).

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

#: admission rounds between rebalances of the parked store. A rebalance
#: leaves each channel's first ``_HOT_ROUNDS * buffer_capacity`` keys hot;
#: admission takes at most ``buffer_capacity`` of them a round, so until
#: the next rebalance every key admission takes is still hot
_HOT_ROUNDS = 16


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
        # A row retires at the hop ceiling or at TTL 1 (TTL is
        # default_ttl - hops), whichever comes first.
        self._hop_ceiling = ceiling = fabric.hop_ceiling
        self._hop_limit = cfg.default_ttl - 1
        if ceiling is not None:
            self._hop_limit = min(ceiling, self._hop_limit)
        self._sanitizer = self.sim.sanitizer
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
        # waiting for its credit, as keys ``chan << 32 | slot``, so a
        # channel's queue is its keys in rank order. They sit in two
        # sorted tiers. The cold one holds each channel's keys past its
        # first _HOT_ROUNDS * quota at the last rebalance; the hot one
        # holds the rest and every key routed since. Merging and
        # admission read the hot tier alone.
        self._moving = np.empty(0, dtype=np.int64)
        self._parked = np.empty(0, dtype=np.int64)
        # Every waiting row's slot lies in [_lo, _hi]. _lo is a lower
        # bound on the lowest live slot, set at each rebalance: new rows
        # activate at higher slots, so the lowest live slot never
        # decreases and the bound holds until the next one. _hi is the
        # highest slot ever live here.
        self._lo = 0
        self._hi = -1
        # Rows absorbed minus rows handed on: nonzero on shard workers only.
        self._migrated = 0

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
        return int(self._moving.size) + self._parked_rows()

    def _parked_rows(self) -> int:
        return int(self._hot.size + self._cold.size)

    @property
    def _parked(self) -> np.ndarray:
        """Every parked key, both tiers, as one sorted array."""
        keys = np.concatenate([self._hot, self._cold])
        keys.sort()
        return keys

    @_parked.setter
    def _parked(self, keys: np.ndarray) -> None:
        # All hot: the next admission round rebalances.
        self._hot = keys
        self._cold = np.empty(0, dtype=np.int64)
        self._until_rebalance = 0

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
        times = self._times
        if self._next < times.size and times[self._next] <= self.frontier:
            end = int(np.searchsorted(times, self.frontier, side="right"))
            self._activate(self._next, end)
            self._next = end
            self._progressed = True
        moved = int(self._moving.size)
        if moved:
            self._retire()
        if self._moving.size or self._hot.size or self._cold.size:
            self._route_and_advance()
        return moved, self._parked_rows()

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
        self._hi = max(self._hi, int(slots[-1]))
        self._stats.n_injected += m

    def _retire(self) -> None:
        # Delivery first, then hop-ceiling, then TTL — the exact switch's
        # dispatch order. One test, against the lower of the two limits,
        # finds every row that drops; the reasons are split only when it
        # fires. Parked rows cannot retire: their pos and hops are
        # unchanged since the round that routed them passed this check.
        moving = self._moving
        hops = self.hops[moving]
        done = self.pos[moving] == self.dst[moving]
        worn = hops >= self._hop_limit
        if worn.any():
            gone = done | worn
            if done.any():
                self._deliver(moving[done])
            self._expire(hops, worn & ~done)
        elif done.any():
            gone = done
            self._deliver(moving[done])
        else:
            return
        self._moving = moving[~gone]
        self._progressed = True

    def _expire(self, hops: np.ndarray, worn: np.ndarray) -> None:
        """Drop the undelivered rows at a hop limit, by reason."""
        ceiling = self._hop_ceiling
        if ceiling is not None:
            over = worn & (hops >= ceiling)
            if over.any():
                k = int(np.count_nonzero(over))
                self._drop(k, "livelock")
                watchdog = self.sim.watchdog
                if watchdog is not None:
                    # Bulk twin of note_livelock: count all k, fire once
                    # past tolerance.
                    watchdog.livelocked_packets += k - 1
                    watchdog.note_livelock(self.sim, int(hops[over].max()))
                worn = worn & ~over
        # TTL = default_ttl - hops; a row at TTL 1 or less expires.
        if worn.any():
            self._drop(int(np.count_nonzero(worn)), "ttl_expired")

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
        fresh = None
        if moving.size:
            pos = self.pos[moving]
            rows, degrees = self.routes.rows(pos, self.dst[moving])
            if not degrees.all():
                blocked = degrees == 0
                self._drop(int(np.count_nonzero(blocked)), "unroutable")
                self._progressed = True
                routable = ~blocked
                moving = moving[routable]
                pos = pos[routable]
                rows = rows[routable]
                degrees = degrees[routable]
            if moving.size:
                chan = self._select(pos, rows, degrees)
                fresh = np.sort((chan << 32) | moving)
        self._until_rebalance -= 1
        if self._until_rebalance <= 0:
            hot = self._rebalance(fresh)
        else:
            hot = self._hot
            if fresh is not None:
                # Two sorted runs, the hot keys and the fresh ones: the
                # stable sort (a merge sort) merges them in one pass.
                hot = np.concatenate([hot, fresh])
                hot.sort(kind="stable")
        if not hot.size:  # every moving row was unroutable
            self._hot = hot
            self._moving = moving
            return

        # Credit-based admission: buffer_capacity rows per directed channel
        # per round, lowest rank first — waiting rows outrank newcomers. A
        # key is among the first ``quota`` of its channel group iff the key
        # ``quota`` places earlier belongs to another channel: their XOR
        # reaches the channel bits. A channel with cold keys still holds
        # at least ``quota`` hot keys below them (see _HOT_ROUNDS), so
        # the hot tier alone answers.
        quota = self.quota
        head = hot[:quota]
        tail = hot[quota:]
        admit = (tail ^ hot[:-quota]) >= 1 << 32
        moved = np.concatenate([head, tail[admit]])
        self._hot = waiting = tail[~admit]
        if self._sanitizer is not None:
            self._sanitizer.check_parked_store(self, hot, moved)

        # Admitted rows hop in rank order (the marking draws follow it).
        flipped = np.sort(((moved & _SLOT_MASK) << 32) | (moved >> 32))
        slots = flipped >> 32
        before = self.time[slots]
        # The rest wait a round — eagerly charged, so float sums match a
        # row-by-row schedule — and become the congestion signal. One add
        # over the kept slot window: every live row lies in it, the
        # admitted ones are rewritten below, and the retired ones' times
        # are read no more.
        if waiting.size or self._cold.size:
            self.time[self._lo:self._hi + 1] += self.round_delta
        if self.mode == "congestion":
            if self._cold.size:
                waiting = np.concatenate([waiting, self._cold])
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

    def _rebalance(self, fresh: Optional[np.ndarray]) -> np.ndarray:
        """Merge both tiers and the fresh keys into one sorted run, split
        it into each channel's first ``_HOT_ROUNDS * quota`` keys (the
        hot tier, returned) and the rest (the cold tier), and refresh the
        wait window's lower bound."""
        self._until_rebalance = _HOT_ROUNDS
        parts = [self._hot, self._cold]
        if fresh is not None:
            parts.append(fresh)
        keys = np.concatenate(parts)
        keys.sort(kind="stable")
        depth = _HOT_ROUNDS * self.quota
        if keys.size > depth:
            # The admission test at depth instead of quota.
            tail = keys[depth:]
            inside = (tail ^ keys[:-depth]) >= 1 << 32
            hot = np.concatenate([keys[:depth], tail[inside]])
            self._cold = tail[~inside]
        else:
            hot, self._cold = keys, keys[:0]
        if hot.size:
            # Each channel's lowest slots are hot, so the lowest live one is.
            self._lo = int((hot & _SLOT_MASK).min())
        return hot

    def _select(self, pos: np.ndarray, rows: np.ndarray,
                degrees: np.ndarray) -> np.ndarray:
        """The chosen candidate's channel, per fresh row."""
        routes = self.routes
        if self.mode == "first" or routes.width == 1:
            return routes.channel(pos, rows, 0)
        if self.mode == "random":
            cols = (self.rng.random(degrees.size) * degrees).astype(np.int64)
            return routes.channel(pos, rows, cols)
        # Least-congested: last round's deferred-row backlog per candidate
        # channel, tie-broken by a sub-1.0 jitter draw (the vectorized twin
        # of LeastCongestedPolicy's seeded random tie-break).
        channels = routes.channel_matrix(pos, rows)
        score = self._backlog[channels] + self.rng.random(channels.shape)
        score[channels < 0] = np.inf
        return channels[np.arange(degrees.size), np.argmin(score, axis=1)]

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
