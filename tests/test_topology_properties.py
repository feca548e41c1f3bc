"""Unit tests for BFS-based graph properties, cross-checked with networkx."""

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topology import Hypercube, Mesh, Torus
from repro.topology.properties import (
    average_distance,
    bfs_distances,
    connected_components,
    count_minimal_paths,
    diameter,
    is_connected,
    shortest_path,
)


class TestBfs:
    def test_distances_match_networkx(self):
        mesh = Mesh((4, 4))
        ours = bfs_distances(mesh, 0)
        theirs = nx.single_source_shortest_path_length(mesh.to_networkx(), 0)
        assert ours == dict(theirs)

    def test_respects_failures(self):
        mesh = Mesh((1, 3))  # path graph 0-1-2
        mesh.fail_link(1, 2)
        assert bfs_distances(mesh, 0) == {0: 0, 1: 1}
        assert bfs_distances(mesh, 0, include_failed=True) == {0: 0, 1: 1, 2: 2}

    @pytest.mark.parametrize("topo", [
        Mesh((4, 4)), Mesh((3, 2, 4)), Mesh((7,)),
        Torus((4, 4)), Torus((5, 3)), Torus((3, 3, 3)),
        Torus((16, 16)), Torus((3, 1, 4)),  # a k = 1 axis
        Hypercube(3), Hypercube(5),
    ], ids=repr)
    def test_closed_form_min_hops_on_every_pair(self, topo):
        """``min_hops`` is the failure-free distance: BFS over every
        physical link, from every source."""
        for u in topo.nodes():
            dist = bfs_distances(topo, u, include_failed=True)
            assert [topo.min_hops(u, v) for v in topo.nodes()] == \
                [dist[v] for v in topo.nodes()]

    def test_bad_source(self):
        with pytest.raises(TopologyError):
            bfs_distances(Mesh((2, 2)), 99)


class TestShortestPath:
    def test_endpoints_and_length(self):
        mesh = Mesh((4, 4))
        path = shortest_path(mesh, 0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert len(path) - 1 == mesh.min_hops(0, 15)

    def test_consecutive_nodes_adjacent(self):
        torus = Torus((4, 4))
        path = shortest_path(torus, 0, 10)
        for u, v in zip(path[:-1], path[1:]):
            assert torus.is_neighbor(u, v)

    def test_unreachable_returns_none(self):
        mesh = Mesh((1, 2))
        mesh.fail_link(0, 1)
        assert shortest_path(mesh, 0, 1) is None

    def test_trivial(self):
        assert shortest_path(Mesh((2, 2)), 3, 3) == [3]


class TestDiameterAverage:
    @pytest.mark.parametrize("topo_factory,expected", [
        (lambda: Mesh((4, 4)), 6),
        (lambda: Torus((4, 4)), 4),
        (lambda: Hypercube(4), 4),
    ])
    def test_diameter_analytic_vs_bfs(self, topo_factory, expected):
        topo = topo_factory()
        assert diameter(topo) == expected == topo.diameter()

    def test_average_distance_matches_networkx(self):
        mesh = Mesh((3, 3))
        ours = average_distance(mesh)
        theirs = nx.average_shortest_path_length(mesh.to_networkx())
        assert ours == pytest.approx(theirs)

    def test_disconnected_raises(self):
        mesh = Mesh((1, 2))
        mesh.fail_link(0, 1)
        with pytest.raises(TopologyError):
            diameter(mesh)


class TestConnectivity:
    def test_connected(self):
        assert is_connected(Mesh((4, 4)))

    def test_disconnection_detected(self):
        mesh = Mesh((1, 3))
        mesh.fail_link(1, 2)
        assert not is_connected(mesh)
        comps = connected_components(mesh)
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2]]


class TestMinimalPathCount:
    def test_mesh_binomial(self):
        # (0,0) -> (2,2) in a mesh: C(4,2) = 6 minimal paths.
        mesh = Mesh((3, 3))
        assert count_minimal_paths(mesh, mesh.index((0, 0)), mesh.index((2, 2))) == 6

    def test_hypercube_factorial(self):
        # 0 -> all-ones in an n-cube: n! minimal paths.
        cube = Hypercube(3)
        assert count_minimal_paths(cube, 0, 7) == 6

    def test_single_path_along_line(self):
        mesh = Mesh((1, 4))
        assert count_minimal_paths(mesh, 0, 3) == 1

    def test_unreachable_is_zero(self):
        mesh = Mesh((1, 2))
        mesh.fail_link(0, 1)
        assert count_minimal_paths(mesh, 0, 1) == 0
