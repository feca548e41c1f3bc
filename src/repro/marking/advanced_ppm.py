"""Song & Perrig's Advanced Marking Scheme I (paper §2 related work).

"With an assumption that a victim has a complete router map, it can trace
back by receiving less than one eighth of the packets than the PPM scheme,
with robustness to the compromised routers."

The trick: instead of splitting a long edge identifier into fragments, each
mark carries a fixed-width *hash* of the edge — ``h(R)`` written by the
marking switch, XORed with ``h(S)`` by the next switch — and the victim,
holding the network map, walks outward matching candidate edges against
observed hash values. One mark constrains a whole edge, so convergence
needs far fewer packets than fragment reassembly; hash width (11 bits here,
like the original) is independent of network size, so the scheme scales to
any cluster.

In a cluster the "complete router map" assumption is trivially satisfied —
the victim knows the topology. Like every path-based scheme, it still
breaks under adaptive routing; benchmark A1/A3 quantify both sides.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, FieldLayoutError
from repro.marking.base import MarkingScheme, VictimAnalysis, _probe_map
from repro.marking.field import SubfieldLayout
from repro.network.ip import MF_BITS
from repro.network.packet import Packet
from repro.topology.base import Topology
from repro.util.bitops import bit_length_for
from repro.util.hashing import hash_bits
from repro.util.validation import check_probability

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.markstream import MarkBatch

__all__ = ["AdvancedPpmScheme", "AdvancedPpmVictimAnalysis"]


class AdvancedPpmScheme(MarkingScheme):
    """Hash-edge probabilistic marking (Advanced Marking Scheme I).

    Parameters
    ----------
    probability:
        Per-switch marking probability.
    rng:
        Seeded generator for the marking coin flips.
    hash_bits_width:
        Width of the edge-hash slot (default 11, as in the original; the
        remaining 5 bits hold the distance).
    """

    def __init__(self, probability: float, rng: np.random.Generator,
                 hash_bits_width: int = 11, total_bits: int = MF_BITS):
        super().__init__()
        self.probability = check_probability(probability, "probability")
        if rng is None:
            raise ConfigurationError("AdvancedPpmScheme requires a seeded rng")
        self.rng = rng
        if hash_bits_width < 4:
            raise ConfigurationError(
                f"hash width must be >= 4 bits, got {hash_bits_width}"
            )
        self.hash_bits_width = hash_bits_width
        self.total_bits = total_bits
        self.name = f"ppm-advanced[h{hash_bits_width}]"
        self.layout: Optional[SubfieldLayout] = None
        self._mark_words: Dict[int, int] = {}
        self._continue_words: Dict[int, int] = {}

    def _on_attach(self, topology: Topology) -> None:
        distance_bits = self.total_bits - self.hash_bits_width
        needed = bit_length_for(topology.diameter() + 1)
        if distance_bits < needed:
            raise FieldLayoutError(
                f"distance slot of {distance_bits} bits cannot cover "
                f"diameter {topology.diameter()}"
            )
        self.layout = SubfieldLayout(
            [("edge", self.hash_bits_width), ("distance", distance_bits)],
            total_bits=self.total_bits,
        )
        self.distance_bits = distance_bits
        self._node_hash = {n: hash_bits(n, self.hash_bits_width)
                           for n in topology.nodes()}
        self._inject_word = self.layout.pack(
            {"edge": 0, "distance": self.max_distance})
        # Probe memos of the columnar hop: functions of the topology.
        self._mark_words = {}
        self._continue_words = {}

    def node_hash(self, node: int) -> int:
        """h(node): the fixed-width switch hash."""
        return self._node_hash[node]

    @property
    def max_distance(self) -> int:
        """Saturation value of the distance slot."""
        return (1 << self.distance_bits) - 1

    # -- switch side -----------------------------------------------------------
    def on_inject(self, packet: Packet, node: int) -> None:
        """Initialize with a *saturated* distance.

        A packet no switch ever marks then arrives at distance max with a
        zero edge field, and the victim discards the saturated level as
        unreliable — without this, the deterministic injection residue
        (h(first switch) at the path's depth) forges plausible edges.
        """
        self._require_attached()
        packet.header.identification = self._inject_word

    def on_hop(self, packet: Packet, from_node: int, to_node: int) -> None:
        """One coin; the word comes from the memos :meth:`on_hop_array`
        keeps, so the layout runs once per distinct key."""
        header = packet.header
        if self.rng.random() < self.probability:
            word = self._mark_words.get(from_node)
            if word is None:
                word = self._mark_words[from_node] = self._mark_word(from_node)
        else:
            key = header.identification * self.topology.num_nodes + from_node
            word = self._continue_words.get(key)
            if word is None:
                word = self._continue_words[key] = self._continue_word(key)
        header.identification = word

    def inject_array(self, n: int) -> np.ndarray:
        """Columnar :meth:`on_inject`: ``n`` saturated-distance words."""
        self._require_attached()
        return np.full(n, self._inject_word, dtype=np.int64)

    def on_hop_array(self, words: np.ndarray, src: np.ndarray,
                     dst: np.ndarray, ttls: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Columnar :meth:`on_hop`: one coin per row, drawn from ``rng``.

        A mark is a pure function of the node, a continue of (word, node);
        both are served through probed memos.
        """
        n = self._require_attached().num_nodes
        out = words.copy()
        mark = rng.random(words.size) < self.probability
        if mark.any():
            out[mark] = _probe_map(src[mark], self._mark_words,
                                   self._mark_word)
        rest = ~mark
        if rest.any():
            out[rest] = _probe_map(words[rest] * n + src[rest],
                                   self._continue_words, self._continue_word)
        return out

    def _mark_word(self, node: int) -> int:
        return self.layout.pack({"edge": self.node_hash(node), "distance": 0})

    def _continue_word(self, key: int) -> int:
        word, node = divmod(key, self._require_attached().num_nodes)
        values = self.layout.unpack(word)
        if values["distance"] == 0:
            values["edge"] ^= self.node_hash(node)
        values["distance"] = min(values["distance"] + 1, self.max_distance)
        return self.layout.pack(values)

    # -- victim side -----------------------------------------------------------
    def new_victim_analysis(self, victim: int) -> "AdvancedPpmVictimAnalysis":
        return AdvancedPpmVictimAnalysis(self, victim)

    def per_hop_operations(self) -> dict:
        """One RNG draw and one (precomputable) hash lookup per hop."""
        return {"rng_draw": 1, "hash": 1, "field_read": 1, "field_write": 1}


class AdvancedPpmVictimAnalysis(VictimAnalysis):
    """Map-based reconstruction: walk outward matching edge hashes.

    Level 0 accepts a neighbor R of the victim when ``h(R)`` was observed at
    distance 0; level d accepts neighbor R of an accepted S (level d-1) when
    ``h(R) XOR h(S)`` was observed at distance d. Hash collisions admit
    false edges at rate ~2^-width — the accuracy/width trade-off the
    original paper analyzes.
    """

    def __init__(self, scheme: AdvancedPpmScheme, victim: int):
        super().__init__(victim)
        self.scheme = scheme
        #: distance -> set of observed edge-hash values
        self.values: Dict[int, Set[int]] = {}

    def _observe(self, packet: Packet) -> None:
        values = self.scheme.layout.unpack(packet.header.identification)
        self.values.setdefault(values["distance"], set()).add(values["edge"])

    def observe_batch(self, batch: "MarkBatch") -> None:
        """Columnar twin of :meth:`observe`: unpack unique words only.

        The (distance, edge) pair is a pure function of the MF word, so the
        per-batch work collapses to one ``unpack_array`` over the distinct
        words — same set-union outcome as per-packet observation.
        """
        n = len(batch)
        if n == 0:
            return
        columns = self.scheme.layout.unpack_array(np.unique(batch.words))
        values = self.values
        for distance, edge in zip(columns["distance"].tolist(),
                                  columns["edge"].tolist()):
            values.setdefault(distance, set()).add(edge)
        self.packets_observed += n

    def reconstruct(self) -> Dict[int, Set[int]]:
        """level -> accepted nodes; level l nodes are l+1 hops from the victim."""
        scheme = self.scheme
        topology = scheme.topology
        levels: Dict[int, Set[int]] = {}
        observed0 = self.values.get(0, set())
        level0 = {r for r in topology.neighbors(self.victim)
                  if scheme.node_hash(r) in observed0}
        if not level0:
            return levels
        levels[0] = level0
        # The saturated distance level mixes overflowing real marks with
        # never-marked injection residue; it is discarded as unreliable.
        usable = [d for d in self.values if d < scheme.max_distance]
        max_distance = max(usable) if usable else 0
        for distance in range(1, max_distance + 1):
            observed = self.values.get(distance, set())
            if not observed:
                break
            previous = levels.get(distance - 1, set())
            accepted: Set[int] = set()
            for s in previous:
                hs = scheme.node_hash(s)
                for r in topology.neighbors(s):
                    if (scheme.node_hash(r) ^ hs) in observed:
                        accepted.add(r)
            if not accepted:
                break
            levels[distance] = accepted
        return levels

    def suspects(self) -> FrozenSet[int]:
        """Frontier nodes: accepted at some level with no accepted
        continuation one level deeper."""
        levels = self.reconstruct()
        if not levels:
            return frozenset()
        scheme = self.scheme
        topology = scheme.topology
        out: Set[int] = set()
        for level, nodes in levels.items():
            deeper = levels.get(level + 1, set())
            observed_deeper = self.values.get(level + 1, set())
            for node in nodes:
                hn = scheme.node_hash(node)
                continued = any(
                    r in deeper and (scheme.node_hash(r) ^ hn) in observed_deeper
                    for r in topology.neighbors(node)
                )
                if not continued:
                    out.add(node)
        return frozenset(out)
