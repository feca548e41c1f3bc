"""Unit tests for link failure bookkeeping."""

import pytest

from repro.errors import TopologyError
from repro.topology import IrregularTopology, Mesh
from repro.topology.links import canonical_link


class TestCanonical:
    def test_orders_pair(self):
        assert canonical_link(5, 2) == (2, 5)
        assert canonical_link(2, 5) == (2, 5)

    def test_self_link_rejected(self):
        with pytest.raises(TopologyError):
            canonical_link(3, 3)


class TestLinkSet:
    """The link set of an :class:`IrregularTopology` built from an edge list."""

    @staticmethod
    def links(num_nodes, edges):
        return IrregularTopology(num_nodes, edges).links

    def test_duplicates_collapse(self):
        links = self.links(3, [(0, 1), (1, 0), (1, 2)])
        assert len(links) == 2
        assert links.all_links == frozenset({(0, 1), (1, 2)})

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            self.links(2, [])

    def test_fail_and_restore(self):
        links = self.links(3, [(0, 1), (1, 2)])
        assert links.is_up(0, 1)
        links.fail(1, 0)  # either order
        assert not links.is_up(0, 1)
        assert not links.is_up(1, 0)
        assert links.exists(0, 1)
        assert links.failed_links == frozenset({(0, 1)})
        links.restore(1, 0)
        assert links.is_up(0, 1)

    def test_fail_nonexistent_rejected(self):
        links = self.links(3, [(0, 1)])
        with pytest.raises(TopologyError):
            links.fail(0, 2)

    def test_restore_unfailed_rejected(self):
        links = self.links(2, [(0, 1)])
        with pytest.raises(TopologyError):
            links.restore(0, 1)

    def test_live_links(self):
        links = self.links(4, [(0, 1), (1, 2), (2, 3)])
        links.fail(1, 2)
        assert links.live_links() == frozenset({(0, 1), (2, 3)})

    def test_restore_all(self):
        links = self.links(3, [(0, 1), (1, 2)])
        links.fail(0, 1)
        links.fail(1, 2)
        links.restore_all()
        assert links.failed_links == frozenset()
        assert links.is_up(0, 1) and links.is_up(1, 2)


class TestTopologyIntegration:
    def test_failed_link_hides_neighbor(self):
        mesh = Mesh((4, 4))
        a, b = mesh.index((0, 0)), mesh.index((0, 1))
        mesh.fail_link(a, b)
        assert b not in mesh.neighbors(a)
        assert b in mesh.neighbors(a, include_failed=True)
        mesh.restore_link(a, b)
        assert b in mesh.neighbors(a)

    def test_edge_list_excludes_failed_by_default(self):
        mesh = Mesh((3, 3))
        total = len(mesh.to_edge_list())
        mesh.fail_link(0, 1)
        assert len(mesh.to_edge_list()) == total - 1
        assert len(mesh.to_edge_list(include_failed=True)) == total
