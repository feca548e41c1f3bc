"""Property tests (hypothesis): each scheme's columnar hop ≡ its scalar hop.

The batched and sharded engines mark cohorts through
``MarkingScheme.inject_array`` / ``on_hop_array``; the exact engine marks
packets through ``on_inject`` / ``on_hop``. For every registered scheme the
cohort engines admit, on a mesh, a torus and a hypercube:

* ``inject_array(n)`` holds the word ``on_inject`` writes, n times;
* a one-row ``on_hop_array`` equals ``on_hop`` when both draw from
  same-seeded generators;
* for the deterministic schemes (DDPM, DPM) an n-row call equals n scalar
  hops.

Only reachable words are drawn: inject, then a random scalar walk. (On a
corrupted word that overflows, DDPM's scalar hop forwards it unchanged
while the array hop folds it; no honest walk produces one.) A newly
registered scheme is picked up here automatically.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.batched import _check_columnar_marking
from repro.errors import ConfigurationError
from repro.network.ip import IPHeader
from repro.network.packet import Packet
from repro.registry import MARKING
from repro.topology import Hypercube, Mesh, Torus

TOPOLOGIES = {
    "mesh": lambda: Mesh((4, 4)),
    "torus": lambda: Torus((4, 4)),
    "hypercube": lambda: Hypercube(4),
}

#: schemes whose hop draws nothing
DETERMINISTIC = ("ddpm", "dpm")

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _admitted(name):
    scheme = MARKING.create(name, np.random.default_rng(0), Mesh((4, 4)), 0.5)
    if scheme is None:  # "none": no words to compare
        return False
    try:
        _check_columnar_marking(scheme)
    except ConfigurationError:
        return False
    return True


ADMITTED = [name for name in MARKING.names() if _admitted(name)]
CASES = [(name, kind) for name in ADMITTED for kind in TOPOLOGIES]


def _attached(name, kind, seed):
    topology = TOPOLOGIES[kind]()
    scheme = MARKING.create(name, np.random.default_rng(seed), topology, 0.5)
    scheme.attach(topology)
    return scheme, topology


def _walk(scheme, topology, rng, hops):
    """Inject at a random node, then take ``hops`` scalar hops to random
    neighbours; returns the packet and the node it sits at."""
    node = int(rng.integers(topology.num_nodes))
    packet = Packet(IPHeader(node, 0, ttl=64), node, 0)
    scheme.on_inject(packet, node)
    for _ in range(hops):
        neighbors = topology.neighbors(node)
        nxt = neighbors[int(rng.integers(len(neighbors)))]
        packet.header.decrement_ttl()
        scheme.on_hop(packet, node, nxt)
        node = nxt
    return packet, node


def _next_hop(topology, node, rng):
    neighbors = topology.neighbors(node)
    return neighbors[int(rng.integers(len(neighbors)))]


def test_every_columnar_scheme_is_covered():
    assert {"ddpm", "dpm", "ppm-full", "ppm-xor", "ppm-bitdiff",
            "ppm-fragment", "ppm-advanced"} <= set(ADMITTED)
    assert "ddpm-auth" not in ADMITTED and "hddpm" not in ADMITTED


@pytest.mark.parametrize("name,kind", CASES)
class TestColumnarEqualsScalar:
    @SETTINGS
    @given(seed=st.integers(0, 2**16), n=st.integers(0, 8))
    def test_inject_array_matches_on_inject(self, name, kind, seed, n):
        scheme, topology = _attached(name, kind, seed)
        node = seed % topology.num_nodes
        packet = Packet(IPHeader(node, 0), node, 0)
        packet.header.identification = 0xBEEF  # attacker-preloaded MF
        scheme.on_inject(packet, node)
        words = scheme.inject_array(n)
        assert words.dtype == np.int64
        assert words.tolist() == [packet.header.identification] * n

    @SETTINGS
    @given(seed=st.integers(0, 2**16), hops=st.integers(0, 12),
           draw_seed=st.integers(0, 2**16))
    def test_one_row_matches_on_hop(self, name, kind, seed, hops,
                                    draw_seed):
        scheme, topology = _attached(name, kind, seed)
        rng = np.random.default_rng(seed)
        packet, node = _walk(scheme, topology, rng, hops)
        nxt = _next_hop(topology, node, rng)
        word = packet.header.identification
        packet.header.decrement_ttl()
        ttl = packet.header.ttl
        # The scalar hop draws from the scheme's own generator, the array
        # hop from the one it is handed: seed both alike.
        scheme.rng = np.random.default_rng(draw_seed)
        scheme.on_hop(packet, node, nxt)
        out = scheme.on_hop_array(
            np.array([word], dtype=np.int64),
            np.array([node], dtype=np.int64),
            np.array([nxt], dtype=np.int64),
            np.array([ttl], dtype=np.int64),
            np.random.default_rng(draw_seed))
        assert out.tolist() == [packet.header.identification]


@pytest.mark.parametrize("name,kind", [case for case in CASES
                                       if case[0] in DETERMINISTIC])
@SETTINGS
@given(seed=st.integers(0, 2**16), rows=st.integers(1, 12))
def test_n_rows_match_n_scalar_hops(name, kind, seed, rows):
    scheme, topology = _attached(name, kind, seed)
    rng = np.random.default_rng(seed)
    words, src, dst, ttls, expected = [], [], [], [], []
    for _ in range(rows):
        packet, node = _walk(scheme, topology, rng,
                             int(rng.integers(0, 13)))
        nxt = _next_hop(topology, node, rng)
        words.append(packet.header.identification)
        packet.header.decrement_ttl()
        src.append(node)
        dst.append(nxt)
        ttls.append(packet.header.ttl)
        scheme.on_hop(packet, node, nxt)
        expected.append(packet.header.identification)
    out = scheme.on_hop_array(*(np.array(column, dtype=np.int64)
                                for column in (words, src, dst, ttls)),
                              np.random.default_rng(seed))
    assert out.tolist() == expected
