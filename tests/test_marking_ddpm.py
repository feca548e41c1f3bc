"""Unit and integration tests for DDPM — the paper's core contribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldOverflowError, IdentificationError, MarkingError
from repro.marking import DdpmScheme
from repro.network import Fabric, FabricConfig
from repro.network.ip import IPHeader
from repro.network.packet import Packet
from repro.routing import (
    DimensionOrderRouter,
    FullyAdaptiveRouter,
    MinimalAdaptiveRouter,
    RandomPolicy,
    ValiantRouter,
    walk_route,
)
from repro.topology import Hypercube, Mesh, Torus


def attached(topology):
    scheme = DdpmScheme()
    scheme.attach(topology)
    return scheme


def identify_along_path(scheme, topology, path):
    """Simulate inject + per-hop marking along an explicit path."""
    packet = Packet(IPHeader(1, 2), path[0], path[-1])
    scheme.on_inject(packet, path[0])
    for u, v in zip(path[:-1], path[1:]):
        scheme.on_hop(packet, u, v)
    return scheme.identify(packet, path[-1])


class TestSwitchSide:
    def test_inject_zeroes_attacker_garbage(self, mesh44):
        scheme = attached(mesh44)
        packet = Packet(IPHeader(1, 2), 5, 15)
        packet.header.identification = 0xFFFF  # attacker preload
        scheme.on_inject(packet, 5)
        assert scheme.layout.decode(packet.header.identification) == (0, 0)

    def test_requires_attach(self):
        scheme = DdpmScheme()
        packet = Packet(IPHeader(1, 2), 0, 1)
        with pytest.raises(MarkingError):
            scheme.on_inject(packet, 0)

    def test_on_hop_accumulates_delta(self, mesh44):
        scheme = attached(mesh44)
        packet = Packet(IPHeader(1, 2), 0, 15)
        scheme.on_inject(packet, 0)
        scheme.on_hop(packet, mesh44.index((0, 0)), mesh44.index((0, 1)))
        assert scheme.layout.decode(packet.header.identification) == (0, 1)
        scheme.on_hop(packet, mesh44.index((0, 1)), mesh44.index((1, 1)))
        assert scheme.layout.decode(packet.header.identification) == (1, 1)

    def test_per_hop_operations_are_simple(self, mesh44, cube4):
        assert attached(mesh44).per_hop_operations()["add"] == 2
        assert attached(cube4).per_hop_operations()["xor"] == 4


class TestHopMemo:
    """The (word, index step) memo equals decode -> combine -> encode.

    Hops over every directed link, wrap links and a 1-node axis included,
    with any 16-bit word: corrupted words that overflow on encode must be
    forwarded unchanged. A small word pool makes the memo answer hops over
    many different links from one entry.
    """

    TOPOLOGIES = {"mesh": Mesh((4, 5)), "torus": Torus((5, 4)),
                  "torus-3d": Torus((3, 1, 4)), "hypercube": Hypercube(4)}

    @staticmethod
    def reference(scheme, topology, word, u, v):
        vector = scheme.layout.decode(word)
        try:
            return scheme.layout.encode(
                topology.combine_offsets(vector, topology.hop_delta(u, v)))
        except FieldOverflowError:
            return word

    @pytest.mark.parametrize("kind", list(TOPOLOGIES))
    @settings(max_examples=40, deadline=None)
    @given(pool=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=4),
           hops=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                         min_size=1, max_size=80))
    def test_memo_matches_the_transform(self, kind, pool, hops):
        topology = self.TOPOLOGIES[kind]
        links = [(u, v) for a, b in topology.to_edge_list() for u, v in ((a, b), (b, a))]
        scheme = attached(topology)
        for pick, link in hops:
            word = pool[pick % len(pool)]
            u, v = links[link % len(links)]
            packet = Packet(IPHeader(1, 2), u, v)
            packet.header.identification = word
            scheme.on_hop(packet, u, v)
            expected = self.reference(scheme, topology, word, u, v)
            assert packet.header.identification == expected
        if kind == "mesh":
            assert len(scheme._hop_cache) <= len(pool) * 2 * len(topology.dims)

    def test_corrupted_word_is_forwarded_unchanged(self, mesh44):
        scheme = attached(mesh44)
        # x = +3, the slot's maximum: one more +x hop overflows.
        word = scheme.layout.encode((3, 0))
        for _ in range(2):  # the miss, then the memo hit
            packet = Packet(IPHeader(1, 2), 0, 1)
            packet.header.identification = word
            scheme.on_hop(packet, mesh44.index((0, 0)), mesh44.index((1, 0)))
            assert packet.header.identification == word


class TestSinglePacketIdentification:
    """Figure 4's guarantee: one packet identifies the exact source."""

    @pytest.mark.parametrize("topo_factory", [
        lambda: Mesh((4, 4)), lambda: Torus((4, 4)), lambda: Hypercube(4),
        lambda: Mesh((3, 3, 3)), lambda: Torus((5, 3)),
    ])
    def test_exact_on_deterministic_routes(self, topo_factory):
        topology = topo_factory()
        scheme = attached(topology)
        router = DimensionOrderRouter()
        for src in topology.nodes():
            dst = topology.num_nodes - 1 - src
            if src == dst:
                continue
            path = walk_route(topology, router, src, dst,
                              lambda c, cur: c[0])
            assert identify_along_path(scheme, topology, path) == src

    @pytest.mark.parametrize("topo_factory", [
        lambda: Mesh((5, 5)), lambda: Torus((5, 5)), lambda: Hypercube(5),
    ])
    def test_exact_on_adaptive_routes(self, topo_factory):
        topology = topo_factory()
        scheme = attached(topology)
        rng = np.random.default_rng(7)
        router = MinimalAdaptiveRouter()
        select = RandomPolicy(rng).binder()
        for trial in range(50):
            src, dst = rng.integers(topology.num_nodes, size=2)
            if src == dst:
                continue
            path = walk_route(topology, router, int(src), int(dst), select)
            assert identify_along_path(scheme, topology, path) == src

    def test_exact_on_nonminimal_routes(self):
        topology = Mesh((5, 5))
        scheme = attached(topology)
        rng = np.random.default_rng(3)
        router = FullyAdaptiveRouter(prefer_minimal=False)
        select = RandomPolicy(rng).binder()
        for _ in range(30):
            path = walk_route(topology, router, 2, 22, select,
                              misroute_budget=6)
            assert identify_along_path(scheme, topology, path) == 2

    def test_exact_on_valiant_routes(self):
        topology = Torus((4, 4))
        scheme = attached(topology)
        rng = np.random.default_rng(5)
        router = ValiantRouter(rng)
        for _ in range(30):
            path = walk_route(topology, router, 1, 14,
                              lambda c, cur: c[0], max_hops=100)
            assert identify_along_path(scheme, topology, path) == 1

    def test_torus_wraparound_routes(self):
        topology = Torus((8, 8))
        scheme = attached(topology)
        # Corner to corner via wrap: the accumulated vector crosses zero.
        path = walk_route(topology, DimensionOrderRouter(),
                          topology.index((0, 0)), topology.index((7, 7)),
                          lambda c, cur: c[0])
        assert identify_along_path(scheme, topology, path) == topology.index((0, 0))


class TestVictimAnalysis:
    def test_suspect_set_is_sources_seen(self, mesh44):
        scheme = attached(mesh44)
        analysis = scheme.new_victim_analysis(15)
        for src in (0, 3, 3, 7):
            path = walk_route(mesh44, DimensionOrderRouter(), src, 15,
                              lambda c, cur: c[0])
            packet = Packet(IPHeader(1, 2), src, 15)
            scheme.on_inject(packet, src)
            for u, v in zip(path[:-1], path[1:]):
                scheme.on_hop(packet, u, v)
            analysis.observe(packet)
        assert analysis.suspects() == frozenset({0, 3, 7})
        assert analysis.source_counts[3] == 2
        assert analysis.packets_observed == 4

    def test_corrupt_vector_raises(self, mesh44):
        scheme = attached(mesh44)
        packet = Packet(IPHeader(1, 2), 0, 0)
        # Claim an offset pointing outside the mesh from node 0 = (0, 0).
        packet.header.identification = scheme.layout.encode((1, 1))
        with pytest.raises(IdentificationError):
            scheme.identify(packet, 0)


class TestEndToEndFabric:
    def test_spoofing_is_irrelevant_to_ddpm(self):
        """DDPM never reads the source address: full spoofing, exact ID."""
        topology = Mesh((4, 4))
        scheme = DdpmScheme()
        fab = Fabric(topology, FullyAdaptiveRouter(), marking=scheme,
                     selection=RandomPolicy(np.random.default_rng(0)))
        analysis = scheme.new_victim_analysis(15)
        fab.add_delivery_handler(15, lambda ev: analysis.observe(ev.packet))
        attacker = 5
        for i in range(25):
            p = fab.make_packet(attacker, 15,
                                spoofed_src_ip=int(np.random.default_rng(i).integers(2**32)))
            p.header.identification = 0xABCD  # preloaded garbage too
            fab.inject(p, delay=i * 0.01)
        fab.run()
        assert analysis.suspects() == frozenset({attacker})

    def test_multiple_attackers_all_identified(self):
        topology = Torus((4, 4))
        scheme = DdpmScheme()
        fab = Fabric(topology, MinimalAdaptiveRouter(), marking=scheme,
                     selection=RandomPolicy(np.random.default_rng(1)))
        victim = 0
        analysis = scheme.new_victim_analysis(victim)
        fab.add_delivery_handler(victim, lambda ev: analysis.observe(ev.packet))
        attackers = [3, 9, 14]
        for i, a in enumerate(attackers * 10):
            fab.inject(fab.make_packet(a, victim), delay=i * 0.02)
        fab.run()
        assert analysis.suspects() == frozenset(attackers)
