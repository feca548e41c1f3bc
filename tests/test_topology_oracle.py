"""DistanceOracle correctness: exact equivalence with min_hops and live BFS.

The oracle is the hot-path replacement for per-hop ``Topology.min_hops``
calls (switch profitability, route walking), so its contract is strict
equality — every analytic formula and every cached BFS row must reproduce
the reference implementation on every pair, including after link failures.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import DistanceOracle, Hypercube, IrregularTopology, Mesh, Torus
from repro.topology.properties import bfs_distances


def _random_connected_graph(rng, num_nodes, extra_edges):
    """A random spanning tree plus ``extra_edges`` random chords."""
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, num_nodes):
        u = nodes[rng.randrange(i)]
        v = nodes[i]
        edges.add((min(u, v), max(u, v)))
    target = min(num_nodes - 1 + extra_edges, num_nodes * (num_nodes - 1) // 2)
    while len(edges) < target:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return IrregularTopology(num_nodes, sorted(edges))


class TestDefaultModeMatchesMinHops:
    """oracle.distance == topology.min_hops on every pair (the bit-identity
    requirement of the hot-path refactor)."""

    @pytest.mark.parametrize("topo", [
        Mesh((4, 4)), Mesh((3, 2, 4)), Mesh((7,)),
        Torus((4, 4)), Torus((5, 3)), Torus((3, 3, 3)),
        # At the frozen table's node cap, and with a k = 1 axis.
        Torus((16, 16)), Torus((3, 1, 4)),
        Hypercube(3), Hypercube(5),
    ], ids=repr)
    def test_regular_topologies_all_pairs(self, topo):
        oracle = topo.distance_oracle()
        for u in topo.nodes():
            for v in topo.nodes():
                assert oracle.distance(u, v) == topo.min_hops(u, v)

    def test_irregular_all_pairs(self):
        rng = random.Random(7)
        topo = _random_connected_graph(rng, 12, extra_edges=6)
        oracle = topo.distance_oracle()
        for u in topo.nodes():
            for v in topo.nodes():
                assert oracle.distance(u, v) == topo.min_hops(u, v)

    def test_min_hops_mode_ignores_failures(self):
        """min_hops is defined on the failure-free network; so is the oracle."""
        topo = Mesh((4, 4))
        oracle = topo.distance_oracle()
        before = oracle.distance(0, 15)
        topo.fail_link(0, 1)
        assert oracle.distance(0, 15) == before == topo.min_hops(0, 15)
        topo.restore_link(0, 1)

    def test_shared_instance_is_cached_on_topology(self):
        topo = Torus((4, 4))
        assert topo.distance_oracle() is topo.distance_oracle()


class TestLiveMode:
    """live=True answers over live links only and tracks fail/restore."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_live_bfs_on_irregular_with_failures(self, data):
        seed = data.draw(st.integers(0, 10**6), label="seed")
        num_nodes = data.draw(st.integers(5, 14), label="num_nodes")
        extra = data.draw(st.integers(0, 8), label="extra_edges")
        rng = random.Random(seed)
        topo = _random_connected_graph(rng, num_nodes, extra)
        oracle = DistanceOracle(topo, live=True)

        links = sorted(topo.links.all_links)
        n_fail = data.draw(st.integers(0, min(4, len(links))), label="n_fail")
        for u, v in rng.sample(links, n_fail):
            topo.fail_link(u, v)

        for u in topo.nodes():
            reference = bfs_distances(topo, u, include_failed=False)
            for v in topo.nodes():
                expected = reference.get(v, math.inf)
                assert oracle.distance(u, v) == expected, (
                    f"live distance {u}->{v} diverged from BFS after failing "
                    f"{n_fail} links (seed {seed})"
                )

    def test_invalidation_on_fail_and_restore(self):
        topo = Torus((4, 4))
        oracle = DistanceOracle(topo, live=True)
        base = oracle.distance(0, 2)
        assert base == topo.min_hops(0, 2) == 2

        # Failing a ring link forces the detour; the cached row must refresh.
        topo.fail_link(0, 1)
        detour = oracle.distance(0, 1)
        assert detour == 3  # around the 4-ring
        topo.restore_link(0, 1)
        assert oracle.distance(0, 1) == 1

    def test_partition_reports_inf(self):
        topo = IrregularTopology(4, [(0, 1), (1, 2), (2, 3)])
        oracle = DistanceOracle(topo, live=True)
        assert oracle.distance(0, 3) == 3
        topo.fail_link(1, 2)
        assert oracle.distance(0, 3) == math.inf
        assert oracle.distance(0, 1) == 1
        topo.restore_link(1, 2)
        assert oracle.distance(0, 3) == 3

    def test_explicit_invalidate_refreshes(self):
        topo = Mesh((3, 3))
        oracle = DistanceOracle(topo, live=True)
        assert oracle.distance(0, 8) == 4
        oracle.invalidate()
        assert oracle.distance(0, 8) == 4
