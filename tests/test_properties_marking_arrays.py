"""Property tests (hypothesis): each scheme's columnar hop ≡ its scalar hop.

The batched and sharded engines mark cohorts through
``MarkingScheme.inject_array`` / ``on_hop_array``, or, for a scheme with
a path-free word (DDPM's ``word_array``), derive the word at delivery;
the exact engine marks packets through ``on_inject`` / ``on_hop``. For
every registered scheme the cohort engines admit, on a mesh, a torus and
a hypercube:

* the columnar injected words (``inject_array(n)``, or ``word_array``
  of n zero-hop rows) hold the word ``on_inject`` writes, n times;
* one columnar hop (``on_hop_array``, or ``word_array`` at the hop's far
  end) equals ``on_hop`` when both draw from same-seeded generators;
* for the deterministic hop schemes (DDPM, DPM) an n-row call equals n
  scalar hops.

For a path-free word, ``word_array([s], [n])`` also equals the word that
``on_inject`` and scalar ``on_hop`` leave after a random, non-minimal
walk from s to n, on meshes (2-D and 3-D), tori (wrap links and odd rings
included) and a hypercube.

Only reachable words are drawn: inject, then a random scalar walk. A
newly registered scheme is picked up here automatically.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.contract import _check_columnar_marking
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
#: the path-free word also walks an odd-ring torus and a 3-D mesh (both
#: tori walk wrap links)
WORD_TOPOLOGIES = {
    **TOPOLOGIES,
    "torus-odd": lambda: Torus((5, 3)),
    "mesh3d": lambda: Mesh((3, 4, 2)),
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


def _path_free(name):
    scheme = MARKING.create(name, np.random.default_rng(0), Mesh((4, 4)), 0.5)
    return hasattr(scheme, "word_array")


ADMITTED = [name for name in MARKING.names() if _admitted(name)]
#: admitted schemes whose word the cohort engines derive at delivery
PATH_FREE = [name for name in ADMITTED if _path_free(name)]
CASES = [(name, kind) for name in ADMITTED for kind in TOPOLOGIES]
PATH_FREE_CASES = [(name, kind) for name in PATH_FREE
                   for kind in WORD_TOPOLOGIES]


def _attached(name, kind, seed):
    topology = WORD_TOPOLOGIES[kind]()
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


def _inject_column(scheme, node, n):
    """The words a cohort engine gives n rows injected at ``node``."""
    if hasattr(scheme, "word_array"):
        column = np.full(n, node, dtype=np.int64)
        return scheme.word_array(column, column)
    return scheme.inject_array(n)


def _hop_column(scheme, sources, words, src, dst, ttls, rng):
    """The words a cohort engine gives rows after one hop src -> dst: a
    path-free word is derived at ``dst`` from the source alone."""
    if hasattr(scheme, "word_array"):
        return scheme.word_array(np.array(sources, dtype=np.int64),
                                 np.array(dst, dtype=np.int64))
    return scheme.on_hop_array(*(np.array(column, dtype=np.int64)
                                 for column in (words, src, dst, ttls)),
                               rng)


def test_every_columnar_scheme_is_covered():
    assert {"ddpm", "dpm", "ppm-full", "ppm-xor", "ppm-bitdiff",
            "ppm-fragment", "ppm-advanced"} <= set(ADMITTED)
    assert "ddpm-auth" not in ADMITTED and "hddpm" not in ADMITTED
    assert PATH_FREE == ["ddpm"]


@pytest.mark.parametrize("name,kind", PATH_FREE_CASES)
@SETTINGS
@given(seed=st.integers(0, 2**16), rows=st.integers(1, 12))
def test_word_array_equals_the_scalar_chain(name, kind, seed, rows):
    scheme, topology = _attached(name, kind, seed)
    rng = np.random.default_rng(seed)
    sources, nodes, expected = [], [], []
    for _ in range(rows):
        # A random walk over neighbours: it backtracks, loops and takes
        # wrap links, so it is rarely a minimal route.
        packet, node = _walk(scheme, topology, rng, int(rng.integers(0, 25)))
        sources.append(packet.true_source)
        nodes.append(node)
        expected.append(packet.header.identification)
    out = scheme.word_array(np.array(sources, dtype=np.int64),
                            np.array(nodes, dtype=np.int64))
    assert out.dtype == np.int64
    assert out.tolist() == expected


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
        words = _inject_column(scheme, node, n)
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
        out = _hop_column(scheme, [packet.true_source], [word], [node],
                          [nxt], [ttl], np.random.default_rng(draw_seed))
        assert out.tolist() == [packet.header.identification]


@pytest.mark.parametrize("name,kind", [case for case in CASES
                                       if case[0] in DETERMINISTIC])
@SETTINGS
@given(seed=st.integers(0, 2**16), rows=st.integers(1, 12))
def test_n_rows_match_n_scalar_hops(name, kind, seed, rows):
    scheme, topology = _attached(name, kind, seed)
    rng = np.random.default_rng(seed)
    sources, words, src, dst, ttls, expected = [], [], [], [], [], []
    for _ in range(rows):
        packet, node = _walk(scheme, topology, rng,
                             int(rng.integers(0, 13)))
        nxt = _next_hop(topology, node, rng)
        sources.append(packet.true_source)
        words.append(packet.header.identification)
        packet.header.decrement_ttl()
        src.append(node)
        dst.append(nxt)
        ttls.append(packet.header.ttl)
        scheme.on_hop(packet, node, nxt)
        expected.append(packet.header.identification)
    out = _hop_column(scheme, sources, words, src, dst, ttls,
                      np.random.default_rng(seed))
    assert out.tolist() == expected


#: PPM schemes whose scalar hop reads the word memos the array hop keeps
MEMOIZED_PPM = ("ppm-full", "ppm-xor", "ppm-bitdiff", "ppm-advanced")


def _reference_ppm_hop(scheme, word, node, coin):
    """One PPM hop encoded afresh, no memo: the encoder's own start
    and continue writes (the advanced scheme's layout, for ppm-advanced)."""
    mark = coin < scheme.probability
    encoder = getattr(scheme, "encoder", None)
    if encoder is not None:
        return (encoder.write_start(word, node) if mark
                else encoder.write_continue(word, node))
    values = scheme.layout.unpack(word)
    if mark:
        values["edge"], values["distance"] = scheme.node_hash(node), 0
    else:
        if values["distance"] == 0:
            values["edge"] ^= scheme.node_hash(node)
        values["distance"] = min(values["distance"] + 1, scheme.max_distance)
    return scheme.layout.pack(values)


@pytest.mark.parametrize("name", MEMOIZED_PPM)
@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
@SETTINGS
@given(seed=st.integers(0, 2**16), rows=st.integers(1, 12))
def test_ppm_scalar_hops_equal_the_array_and_the_encoder(name, kind, seed,
                                                         rows):
    """n scalar hops on one coin sequence ≡ one n-row array hop on the
    same sequence ≡ the encoder run per hop."""
    scheme, topology = _attached(name, kind, seed)
    rng = np.random.default_rng(seed)
    packets, src, dst = [], [], []
    for _ in range(rows):
        packet, node = _walk(scheme, topology, rng, int(rng.integers(0, 13)))
        packets.append(packet)
        src.append(node)
        dst.append(_next_hop(topology, node, rng))
    words = [packet.header.identification for packet in packets]
    coins = np.random.default_rng(seed + 1).random(rows).tolist()
    expected = [_reference_ppm_hop(scheme, word, node, coin)
                for word, node, coin in zip(words, src, coins)]

    scheme.rng = np.random.default_rng(seed + 1)
    for packet, u, v in zip(packets, src, dst):
        scheme.on_hop(packet, u, v)
    assert [packet.header.identification for packet in packets] == expected
    out = scheme.on_hop_array(
        *(np.array(column, dtype=np.int64)
          for column in (words, src, dst, [0] * rows)),
        np.random.default_rng(seed + 1))
    assert out.tolist() == expected


@pytest.mark.parametrize("name", MEMOIZED_PPM[:3])
def test_reattached_ppm_marks_from_fresh_words(name):
    """Memos are functions of the topology: after a re-attach the next
    scalar hop encodes for the new one, not from the old one's memo.
    (ppm-advanced's words, a node hash and a fixed-width distance, do not
    depend on the topology.)"""
    scheme = MARKING.create(name, np.random.default_rng(0), Mesh((4, 4)), 0.5)
    scheme.attach(Mesh((4, 4)))
    hops = [(0, 5, 1), (0, 6, 2), (1, 9, 13), (0, 10, 11)]  # (p, word, node)

    def marked(scheme):
        out = []
        for probability, word, node in hops:
            scheme.probability = probability
            packet = Packet(IPHeader(node, 0), node, 0)
            packet.header.identification = word
            scheme.on_hop(packet, node, node + 1)
            out.append(packet.header.identification)
        return out

    old = marked(scheme)
    scheme.attach(Mesh((8, 8)))
    fresh = MARKING.create(name, np.random.default_rng(0), Mesh((8, 8)), 0.5)
    fresh.attach(Mesh((8, 8)))
    assert marked(scheme) == marked(fresh) != old
