"""The neighbour table against per-node reference rules.

Meshes, tori and hypercubes derive every neighbour read — ``neighbors``,
``step``, the link set — from one ``(num_nodes, 2 * len(dims))`` table
built by stride arithmetic. The reference rules below walk one node's
coordinate tuple at a time, as the topologies did before the table; every
table-derived answer must equal theirs, on drawn dims that include size-1
axes and 2-node mesh axes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology import Hypercube, Mesh, Torus
from repro.topology.coords import coord_to_index, index_to_coord, manhattan


def _ref_neighbors(topo, node):
    if topo.kind == "hypercube":
        return tuple(node ^ (1 << (topo.n - 1 - axis)) for axis in range(topo.n))
    out = []
    for axis in range(len(topo.dims)):
        for direction in (-1, 1):
            nxt = _ref_step(topo, node, axis, direction)
            if nxt is not None and nxt not in out:
                out.append(nxt)
    return tuple(out)


def _ref_step(topo, node, axis, direction):
    if topo.kind == "hypercube":
        return node ^ (1 << (topo.n - 1 - axis))
    coord = index_to_coord(node, topo.dims)
    k = topo.dims[axis]
    c = coord[axis] + direction
    if topo.kind == "mesh":
        if not 0 <= c < k:
            return None
    elif k == 1:
        return None
    else:
        c %= k
    return coord_to_index(coord[:axis] + (c,) + coord[axis + 1:], topo.dims)


def _ref_links(topo):
    return frozenset((min(u, v), max(u, v)) for u in topo.nodes()
                     for v in _ref_neighbors(topo, u))


@st.composite
def regular_topologies(draw):
    """A mesh (axes of 1 to 5 nodes), a torus (axes of 1 or 3 to 5 nodes)
    or a hypercube, with at least 2 nodes."""
    kind = draw(st.sampled_from(["mesh", "torus", "hypercube"]))
    if kind == "hypercube":
        return Hypercube(draw(st.integers(1, 6)))
    sizes = st.integers(1, 5) if kind == "mesh" else st.sampled_from([1, 3, 4, 5])
    dims = draw(st.lists(sizes, min_size=1, max_size=3)
                .filter(lambda d: int(np.prod(d)) >= 2))
    return Mesh(dims) if kind == "mesh" else Torus(dims)


@settings(max_examples=80, deadline=None)
@given(regular_topologies())
def test_neighbors_step_and_coords_match_the_reference(topo):
    assert topo.coord_array().tolist() == [
        list(index_to_coord(i, topo.dims)) for i in topo.nodes()]
    for node in topo.nodes():
        assert topo.coord(node) == index_to_coord(node, topo.dims)
        assert topo.neighbors(node) == _ref_neighbors(topo, node)
        for axis, k in enumerate(topo.dims):
            for direction in (-1, 1):
                got = topo.step(node, axis, direction)
                assert got == _ref_step(topo, node, axis, direction)
                edge = topo.coord(node)[axis] == (0 if direction < 0 else k - 1)
                if topo.kind == "mesh" and edge:
                    assert got is None
        for other in topo.nodes():
            assert topo.min_hops(node, other) == manhattan(
                topo.distance_vector(node, other))


@settings(max_examples=60, deadline=None)
@given(regular_topologies(), st.data())
def test_links_exist_and_fail_like_the_reference(topo, data):
    links = _ref_links(topo)
    assert topo.links.all_links == links
    assert len(topo.links) == len(links)
    u, v = data.draw(st.sampled_from(sorted(links)))
    topo.fail_link(v, u)
    for a in topo.nodes():
        for b in topo.nodes():
            if a == b:
                continue
            linked = (min(a, b), max(a, b)) in links
            assert topo.links.exists(a, b) == linked
            assert topo.links.is_up(a, b) == (linked and {a, b} != {u, v})
    assert u not in topo.neighbors(v) and v not in topo.neighbors(u)
    assert topo.links.live_links() == links - {(u, v)}
    topo.restore_link(u, v)
    assert all(topo.links.is_up(a, b) for a, b in links)
    assert topo.neighbors(u) == _ref_neighbors(topo, u)


@pytest.mark.parametrize("topo", [Mesh((3, 4)), Torus((3, 1, 4)), Hypercube(3)], ids=repr)
def test_step_rejects_a_bad_axis_or_direction(topo):
    for axis in (-1, len(topo.dims)):
        with pytest.raises(TopologyError):
            topo.step(0, axis, 1)
    for direction in (0, 2, -2):
        with pytest.raises(TopologyError):
            topo.step(0, 0, direction)
    with pytest.raises(TopologyError):
        topo.step(topo.num_nodes, 0, 1)


def test_the_table_is_built_once_and_read_only():
    topo = Torus((4, 3))
    table = topo.neighbor_table()
    assert table is topo.neighbor_table()
    assert table.shape == (12, 4) and not table.flags.writeable
    assert not topo.coord_array().flags.writeable
