"""Probabilistic Packet Marking — Savage-style edge sampling on direct networks.

Per forwarding switch, per packet (paper §2/§4.2):

* with probability ``p``: write own label as the mark's start, distance 0;
* otherwise: if the stored distance is 0, complete the edge with own label;
  then increment the distance (saturating at the field maximum).

The victim accumulates marks across many packets, filters them against the
network map, and reconstructs attack paths with
:func:`repro.marking.ppm_reconstruct.reconstruct_paths`. Under deterministic
routing with enough packets this recovers exact paths; under adaptive
routing the per-packet paths diverge and the reconstruction degrades into an
ambiguous DAG — the paper's central criticism.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.marking.base import MarkingScheme, VictimAnalysis, _probe_map
from repro.marking.ppm_encoding import EdgeMark, MarkEncoder
from repro.marking.ppm_reconstruct import reconstruct_paths
from repro.network.packet import Packet
from repro.topology.base import Topology
from repro.util.validation import check_probability

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.markstream import MarkBatch

__all__ = ["PpmScheme", "PpmVictimAnalysis"]


class PpmScheme(MarkingScheme):
    """Edge-sampling PPM with a pluggable mark encoder.

    Parameters
    ----------
    encoder:
        Wire format (:class:`FullIndexEncoder`, :class:`XorEncoder`, or
        :class:`BitDifferenceEncoder`).
    probability:
        Per-switch marking probability ``p`` (Savage's recommended ~0.04 for
        the Internet; cluster paths are longer, see benchmark AB2).
    rng:
        Seeded generator driving the marking coin flips.
    """

    def __init__(self, encoder: MarkEncoder, probability: float,
                 rng: np.random.Generator):
        super().__init__()
        self.encoder = encoder
        self.probability = check_probability(probability, "probability")
        if rng is None:
            raise ConfigurationError("PpmScheme requires a seeded rng")
        self.rng = rng
        self.name = f"ppm[{encoder.name}]"
        self._start_words: Dict[int, int] = {}
        self._continue_words: Dict[int, int] = {}

    def _on_attach(self, topology: Topology) -> None:
        self.encoder.attach(topology)
        # Probe memos of the columnar hop: functions of the topology.
        self._start_words = {}
        self._continue_words = {}

    # -- switch side -------------------------------------------------------
    def on_hop(self, packet: Packet, from_node: int, to_node: int) -> None:
        """One coin; the word comes from the memos :meth:`on_hop_array`
        keeps, so the encoder's layout runs once per distinct key."""
        header = packet.header
        if self.rng.random() < self.probability:
            word = self._start_words.get(from_node)
            if word is None:
                word = self._start_words[from_node] = self._start_word(from_node)
        else:
            key = header.identification * self.topology.num_nodes + from_node
            word = self._continue_words.get(key)
            if word is None:
                word = self._continue_words[key] = self._continue_word(key)
        header.identification = word

    def on_hop_array(self, words: np.ndarray, src: np.ndarray,
                     dst: np.ndarray, ttls: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Columnar :meth:`on_hop`: one coin per row, drawn from ``rng``.

        Both branches are pure functions — ``write_start`` of the node,
        ``write_continue`` of (word, node) — served through probed memos.
        """
        n = self._require_attached().num_nodes
        out = words.copy()
        mark = rng.random(words.size) < self.probability
        if mark.any():
            out[mark] = _probe_map(src[mark], self._start_words,
                                   self._start_word)
        rest = ~mark
        if rest.any():
            out[rest] = _probe_map(words[rest] * n + src[rest],
                                   self._continue_words, self._continue_word)
        return out

    def _start_word(self, node: int) -> int:
        return self.encoder.write_start(0, node)

    def _continue_word(self, key: int) -> int:
        word, node = divmod(key, self._require_attached().num_nodes)
        return self.encoder.write_continue(word, node)

    # -- victim side -------------------------------------------------------
    def new_victim_analysis(self, victim: int) -> "PpmVictimAnalysis":
        return PpmVictimAnalysis(self, victim)

    def per_hop_operations(self) -> dict:
        """One RNG draw, one field read, one conditional write per hop."""
        return {"rng_draw": 1, "field_read": 1, "field_write": 1}


class PpmVictimAnalysis(VictimAnalysis):
    """Accumulates marks, reconstructs attack paths, reports source suspects.

    ``min_mark_count`` suppresses marks seen fewer than that many times —
    the standard noise filter against unmarked-injection residue (a packet
    no switch marked carries a deterministic garbage word).
    """

    def __init__(self, scheme: PpmScheme, victim: int, min_mark_count: int = 1):
        super().__init__(victim)
        if min_mark_count < 1:
            raise ConfigurationError(f"min_mark_count must be >= 1, got {min_mark_count}")
        self.scheme = scheme
        self.min_mark_count = min_mark_count
        self.mark_counts: Dict[int, int] = {}
        self._cache_key: Optional[Tuple[int, int]] = None
        self._cache_suspects: FrozenSet[int] = frozenset()

    def _observe(self, packet: Packet) -> None:
        word = packet.header.identification
        self.mark_counts[word] = self.mark_counts.get(word, 0) + 1

    def observe_batch(self, batch: "MarkBatch") -> None:
        """Vectorized mark bucketing: MF words are 16-bit, so a dense
        ``np.bincount`` over the batch replaces n dict updates, and only the
        distinct words touch ``mark_counts``. End state is identical to the
        per-packet path for any partition of the stream.
        """
        n = len(batch)
        if n == 0:
            return
        counts = np.bincount(batch.words)
        mark_counts = self.mark_counts
        for word in np.flatnonzero(counts).tolist():
            mark_counts[word] = mark_counts.get(word, 0) + int(counts[word])
        self.packets_observed += n

    def collected_edges(self) -> Tuple[EdgeMark, ...]:
        """Physical-edge candidates decoded from all sufficiently-seen marks."""
        encoder = self.scheme.encoder
        edges = []
        for word, count in self.mark_counts.items():
            if count < self.min_mark_count:
                continue
            edges.extend(encoder.candidate_edges(word, self.victim))
        # EdgeMark.end can be None (distance-0 marks); sort with a sentinel.
        return tuple(sorted(set(edges),
                            key=lambda m: (m.start,
                                           -1 if m.end is None else m.end,
                                           m.distance)))

    def suspects(self) -> FrozenSet[int]:
        key = (len(self.mark_counts), self.packets_observed)
        if key == self._cache_key:
            return self._cache_suspects
        topology = self.scheme.encoder.topology
        graph = reconstruct_paths(self.collected_edges(), topology, self.victim)
        self._cache_key = key
        self._cache_suspects = frozenset(graph.sources())
        return self._cache_suspects

    def reconstruction(self):
        """Full reconstructed attack graph (for inspection and benchmarks)."""
        topology = self.scheme.encoder.topology
        return reconstruct_paths(self.collected_edges(), topology, self.victim)
