"""Unit and integration tests for DPM (TTL-position one-bit marking)."""

import numpy as np
import pytest

from repro.analysis.dpm_model import neighbor_bit_collision_rate, signature_table_ambiguity
from repro.errors import MarkingError
from repro.marking.dpm import DpmScheme, build_signature_table, path_signature
from repro.network import Fabric, FabricConfig
from repro.network.ip import IPHeader
from repro.network.packet import Packet
from repro.routing import (
    DimensionOrderRouter,
    MinimalAdaptiveRouter,
    RandomPolicy,
    walk_route,
)
from repro.topology import Mesh, Torus


def attached(topology):
    scheme = DpmScheme()
    scheme.attach(topology)
    return scheme


class TestSwitchSide:
    def test_writes_one_bit_at_ttl_position(self, mesh44):
        scheme = attached(mesh44)
        packet = Packet(IPHeader(1, 2, ttl=37), 0, 15)
        scheme.on_inject(packet, 0)
        scheme.on_hop(packet, 5, 6)
        position = 37 % 16
        expected = scheme.node_bit(5) << position
        assert packet.header.identification == expected

    def test_unattached_hop_raises(self):
        """The hop reads the attach-time bit table; an unattached scheme
        misses it and must still refuse, even for a node whose bit the
        victim side has already asked for."""
        scheme = DpmScheme()
        scheme.node_bit(5)
        packet = Packet(IPHeader(1, 2, ttl=37), 0, 15)
        with pytest.raises(MarkingError, match="attach"):
            scheme.on_hop(packet, 5, 6)
        assert packet.header.identification == 0

    def test_consecutive_hops_hit_consecutive_positions(self, mesh44):
        scheme = attached(mesh44)
        packet = Packet(IPHeader(1, 2, ttl=32), 0, 15)
        scheme.on_inject(packet, 0)
        # Mirror the fabric: decrement TTL, then mark.
        for node in (0, 1, 2):
            packet.header.decrement_ttl()
            scheme.on_hop(packet, node, node + 1)
        word = packet.header.identification
        for i, node in enumerate((0, 1, 2)):
            position = (31 - i) % 16
            assert (word >> position) & 1 == scheme.node_bit(node)

    def test_marks_overwritten_past_16_hops(self):
        """Paper §4.3: paths longer than 16 hops lose early information."""
        scheme = DpmScheme()
        long_mesh = Mesh((1, 40))
        scheme.attach(long_mesh)
        path = tuple(range(40))  # 39 forwarding hops > 16
        sig_full = path_signature(scheme, path, initial_ttl=64)
        # The last 16 forwarding switches fully determine the signature:
        # everything the farther switches wrote was overwritten.
        sig_late = path_signature(scheme, path[-17:], initial_ttl=64 - (len(path) - 17))
        assert sig_full == sig_late

    def test_on_inject_zeroes(self, mesh44):
        scheme = attached(mesh44)
        packet = Packet(IPHeader(1, 2), 0, 15)
        packet.header.identification = 0xFFFF
        scheme.on_inject(packet, 0)
        assert packet.header.identification == 0


class TestSignatureTable:
    def test_stable_routes_signature_consistency(self, mesh44):
        scheme = attached(mesh44)
        router = DimensionOrderRouter()
        table = build_signature_table(scheme, mesh44, router, 15, 64)
        # Walk source 0's path through the fabric formula and check the
        # table contains it.
        path = tuple(walk_route(mesh44, router, 0, 15, lambda c, cur: c[0]))
        sig = path_signature(scheme, path, 64)
        assert 0 in table[sig]

    def test_table_covers_all_sources(self, mesh44):
        scheme = attached(mesh44)
        table = build_signature_table(scheme, mesh44, DimensionOrderRouter(), 15, 64)
        covered = set()
        for sources in table.values():
            covered |= sources
        assert covered == set(range(15))

    def test_collisions_exist(self, mesh44):
        """Paper §4.3: distinct sources share signatures (half of neighbors
        share a hash bit)."""
        scheme = attached(mesh44)
        table = build_signature_table(scheme, mesh44, DimensionOrderRouter(), 15, 64)
        stats = signature_table_ambiguity(table)
        assert stats["ambiguous_source_fraction"] > 0.0

    def test_neighbor_bit_collision_near_half(self):
        # Larger mesh for statistical stability.
        mesh = Mesh((16, 16))
        scheme = attached(mesh)
        rate = neighbor_bit_collision_rate(mesh, scheme)
        assert 0.35 < rate < 0.65


class TestVictimAnalysis:
    def test_signature_counting(self, mesh44):
        scheme = attached(mesh44)
        analysis = scheme.new_victim_analysis(15)
        packet = Packet(IPHeader(1, 2), 0, 15)
        packet.header.identification = 0x1234
        analysis.observe(packet)
        analysis.observe(packet)
        assert analysis.observed_signatures() == frozenset({0x1234})
        assert analysis.signature_counts[0x1234] == 2

    def test_without_table_no_suspects_but_signatures(self, mesh44):
        scheme = attached(mesh44)
        analysis = scheme.new_victim_analysis(15)
        packet = Packet(IPHeader(1, 2), 0, 15)
        packet.header.identification = 0x4321
        analysis.observe(packet)
        assert analysis.suspects() == frozenset()
        assert analysis.observed_signatures()

    def test_suspects_via_table(self, mesh44):
        scheme = attached(mesh44)
        router = DimensionOrderRouter()
        table = build_signature_table(scheme, mesh44, router, 15, 64)
        fab = Fabric(mesh44, router, marking=scheme)
        analysis = scheme.new_victim_analysis(15, table)
        fab.add_delivery_handler(15, lambda ev: analysis.observe(ev.packet))
        for i in range(10):
            fab.inject(fab.make_packet(0, 15), delay=i * 0.01)
        fab.run()
        assert 0 in analysis.suspects()


class TestAdaptiveInstability:
    def test_one_source_many_signatures_under_adaptive_routing(self):
        """Paper §4.3: 'one attack may have different MF values'."""
        topology = Mesh((5, 5))
        scheme = DpmScheme()
        fab = Fabric(topology, MinimalAdaptiveRouter(), marking=scheme,
                     selection=RandomPolicy(np.random.default_rng(0)))
        analysis = scheme.new_victim_analysis(24)
        fab.add_delivery_handler(24, lambda ev: analysis.observe(ev.packet))
        for i in range(80):
            fab.inject(fab.make_packet(0, 24), delay=i * 0.05)
        fab.run()
        assert len(analysis.observed_signatures()) > 3

    def test_deterministic_single_signature(self):
        topology = Mesh((5, 5))
        scheme = DpmScheme()
        fab = Fabric(topology, DimensionOrderRouter(), marking=scheme)
        analysis = scheme.new_victim_analysis(24)
        fab.add_delivery_handler(24, lambda ev: analysis.observe(ev.packet))
        for i in range(40):
            fab.inject(fab.make_packet(0, 24), delay=i * 0.05)
        fab.run()
        assert len(analysis.observed_signatures()) == 1
