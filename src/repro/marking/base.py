"""Marking-scheme and victim-analysis interfaces.

A :class:`MarkingScheme` is the switch-side half: it initializes the marking
field at injection and mutates it at every hop. A :class:`VictimAnalysis` is
the destination-side half: it observes delivered packets and maintains a
suspect set of source nodes. The two halves communicate *only* through the
16-bit MF — tests enforce that no ground-truth leaks through.

The split matters for scoring: DDPM's analysis is exact after one packet;
PPM's converges as marks accumulate; DPM's is signature-based and only as
good as its (route-stability-dependent) signature table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, FrozenSet, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import (ConfigurationError, IdentificationError,
                          MarkingError)
from repro.network.packet import Packet
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.markstream import MarkBatch

__all__ = ["MarkingScheme", "VictimAnalysis"]


def _probe_map(keys: np.ndarray, table: Dict[int, int],
               fn: Callable[[int], int]) -> np.ndarray:
    """Map int keys through a lazily probed scalar function.

    Only *distinct unseen* keys ever reach the Python function — the
    steady-state cost is one ``np.unique`` plus a dict hit per distinct key,
    exactly the int-keyed per-hop memo pattern the exact engine uses, read
    back as a lookup array. ``table`` is the caller's memo; it must be
    rebuilt whenever ``fn`` changes (schemes rebuild theirs on attach).
    """
    uniq, inverse = np.unique(keys, return_inverse=True)
    values = np.empty(uniq.size, dtype=np.int64)
    for i, key in enumerate(uniq.tolist()):  # per-unique-key probe  # repro-lint: disable=H3
        hit = table.get(key)
        if hit is None:
            hit = table[key] = int(fn(key))
        values[i] = hit
    return values[inverse]


class VictimAnalysis(ABC):
    """Destination-side accumulator turning observed packets into suspects."""

    def __init__(self, victim: int):
        self.victim = victim
        self.packets_observed = 0
        #: packets whose Marking Field could not be attributed (e.g. a
        #: fault-injected bit flip decoding to a coordinate outside the
        #: network); discarded, never turned into suspects.
        self.corrupted_packets = 0

    def observe(self, packet: Packet) -> None:
        """Feed one delivered packet; updates the suspect estimate.

        A packet whose mark cannot be decoded — wire corruption is a fault
        campaigns inject on purpose — is counted in ``corrupted_packets``
        and otherwise ignored: a victim under attack must keep analyzing,
        not die on the first damaged header.
        """
        self.packets_observed += 1
        try:
            self._observe(packet)
        except IdentificationError:
            self.corrupted_packets += 1

    def observe_batch(self, batch: "MarkBatch") -> None:
        """Feed a columnar batch of delivered packets.

        Overrides must be *order- and partition-insensitive in effect*:
        after any sequence of ``observe``/``observe_batch`` calls covering
        the same packets, ``suspects()``, ``packets_observed``, and
        ``corrupted_packets`` must equal the per-packet outcome (the
        hypothesis property suite pins this for every registered scheme).
        This base implementation replays rows through :meth:`observe`, so
        third-party analyses keep working unmodified; the in-tree schemes
        override it with vectorized decoders. Batches produced by the
        batched engine carry no packet objects (``batch.packets is None``)
        and therefore require a columnar override.
        """
        if batch.packets is None:
            raise ConfigurationError(
                f"{type(self).__name__} has no columnar observe_batch "
                "override and the batch carries no packet objects (batched "
                "engine); implement observe_batch over the column arrays"
            )
        for packet in batch.packets:
            self.observe(packet)

    @abstractmethod
    def _observe(self, packet: Packet) -> None:
        """Scheme-specific per-packet processing."""

    @abstractmethod
    def suspects(self) -> FrozenSet[int]:
        """Current best estimate of the set of attacking source nodes.

        May legitimately be broader than the true attacker set (ambiguity)
        or narrower (not yet converged); the defense metrics quantify both.
        """


class MarkingScheme(ABC):
    """Switch-side marking logic plus a factory for its victim analysis.

    The switch side has a scalar form per packet (``on_inject``,
    ``on_hop``; the exact engine) and a columnar form per cohort
    (``inject_array``, ``on_hop_array``; the batched and sharded engines).
    ``on_hop_array(words, src, dst, ttls, rng) -> words`` applies
    :meth:`on_hop` to row i: MF word ``words[i]`` forwarded from node
    ``src[i]`` to ``dst[i]`` with decremented TTL ``ttls[i]``, drawing from
    ``rng`` in row order. It has no default. A class that overrides a
    scalar method overrides its twin too, or the cohort engines refuse the
    scheme (DESIGN.md §12).
    """

    #: human-readable scheme name
    name: str = "abstract"

    def __init__(self):
        self.topology: Optional[Topology] = None

    # -- lifecycle -------------------------------------------------------
    def attach(self, topology: Topology) -> None:
        """Bind to a topology; precompute layouts/labels; validate applicability.

        Raises :class:`MarkingError` (or a subclass) when the scheme cannot
        operate on this topology — e.g. a marking field too narrow for the
        network size (the paper's Tables 1-3).
        """
        self.topology = topology
        self._on_attach(topology)

    def _on_attach(self, topology: Topology) -> None:
        """Subclass hook; default does nothing extra."""

    def _require_attached(self) -> Topology:
        if self.topology is None:
            raise MarkingError(f"{self.name}: attach() must be called before use")
        return self.topology

    # -- switch side -------------------------------------------------------
    def on_inject(self, packet: Packet, node: int) -> None:
        """First switch, packet arriving from the local NIC.

        Default zeroes the MF — overwriting attacker-supplied garbage, the
        integrity anchor of every scheme here.
        """
        self._require_attached()
        packet.header.identification = 0

    @abstractmethod
    def on_hop(self, packet: Packet, from_node: int, to_node: int) -> None:
        """Per-hop mark applied by the switch at ``from_node`` after routing."""

    def inject_array(self, n: int) -> np.ndarray:
        """Columnar :meth:`on_inject`: the MF words of ``n`` injected packets.

        Default zeroes them, like :meth:`on_inject`.
        """
        self._require_attached()
        return np.zeros(n, dtype=np.int64)

    # -- victim side -------------------------------------------------------
    @abstractmethod
    def new_victim_analysis(self, victim: int) -> VictimAnalysis:
        """Create the destination-side analyzer for ``victim``."""

    # -- cost model ---------------------------------------------------------
    def per_hop_operations(self) -> dict:
        """Abstract operation counts per hop (adds/xors/hashes/reads/writes).

        Drives the §6.2 switch-overhead comparison without relying on Python
        timing alone.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"
