"""The shared route table (repro.routing.plan) against the routers themselves.

Every engine reads a table-driven router's candidates from one
:class:`RouteTable`: the exact engine and ``walk_route`` through the scalar
read, the cohort engines through the columnar ``lookup``. The table is the
router's declared closed form evaluated once per (link group, offset-sign
class): group 0 holds every node whose links are all up, each node on a
failed link is a group of its own. These properties are what keeps each
closed form, and that keying, equal to the router's own ``candidates``:
for every registered table-driven router on meshes (2-D and 3-D), tori and
hypercubes, intact or with up to two failed links, both reads must answer
exactly what ``router.candidates`` answers, order included. The sign
classes come from ``Topology.offset_array``, checked here row for row
against the scalar ``distance_vector``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.network import Fabric
from repro.registry import ROUTING
from repro.routing import FirstCandidatePolicy, MinimalAdaptiveRouter, walk_route
from repro.routing.base import RouteState
from repro.routing.plan import RouteTable, route_table
from repro.topology import ClusterMesh, FatTree, Hypercube, Mesh, Torus

from tests.conftest import first_candidate

TOPOLOGIES = {
    "mesh": lambda: Mesh((3, 4)),
    "odd-torus": lambda: Torus((5, 3)),
    # Even rings have antipodes: both directions are minimal there and the
    # tie must resolve to the positive one, as torus_distance_vector does.
    "even-torus": lambda: Torus((4, 6)),
    # Torus rings need k = 1 or k >= 3 (k = 2 would fold both directions
    # onto one link); a 2-wide mesh axis has one neighbor per node there.
    "k1-torus": lambda: Torus((3, 1, 4)),
    "k2-mesh": lambda: Mesh((2, 5)),
    # Three axes: negative-first's phases and 3-axis dimension order.
    "3d-mesh": lambda: Mesh((3, 2, 3)),
    "hypercube": lambda: Hypercube(4),
    # 2^6 sign classes per node: the scalar read's row cache is n² rows
    # here, filled only where a column reads it.
    "hypercube-6": lambda: Hypercube(6),
}

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _router(name):
    return ROUTING.create(name, np.random.default_rng(0))


def _table_driven_cases():
    cases = []
    for name in ROUTING.names():
        for kind, build in TOPOLOGIES.items():
            router, topology = _router(name), build()
            try:
                router.validate(topology)
            except RoutingError:
                continue
            if route_table(router, topology) is not None:
                cases.append((name, kind))
    return cases


CASES = _table_driven_cases()


def _reference(router, topology, current, destination):
    """What the router answers a real packet: the table must not depend on
    misroute budget or the previous hop."""
    state = RouteState(destination, misroute_budget=3)
    state.last_node = topology.neighbors(current, include_failed=True)[0]
    return router.candidates(topology, current, state)


def test_table_driven_routers():
    """Routers with a closed form are tabled (prefer-minimal fully-adaptive
    only while no link is failed); the rest are asked live."""
    mesh = Mesh((4, 4))
    driven = {name for name in ROUTING.names()
              if route_table(_router(name), mesh) is not None}
    assert driven == {"xy", "dor", "west-first", "north-last",
                      "negative-first", "minimal-adaptive", "fully-adaptive"}
    mesh.fail_link(0, 1)
    assert route_table(_router("fully-adaptive"), mesh) is None
    assert route_table(_router("minimal-adaptive"), mesh) is not None


def test_cases_cover_every_topology():
    assert {kind for _, kind in CASES} == set(TOPOLOGIES)
    assert {name for name, _ in CASES} >= {"minimal-adaptive",
                                           "fully-adaptive", "xy", "dor"}


def _assert_reads(table, router, topology, pairs):
    """Both reads of ``table`` answer ``pairs`` as the router does."""
    expected = [_reference(router, topology, cur, dst) for cur, dst in pairs]

    # Scalar read, cold then warm.
    for _ in range(2):
        assert [table.candidates(cur, dst) for cur, dst in pairs] == expected

    # Columnar read on a fresh table, cold then warm; padding past each
    # row's degree is -1.
    fresh = RouteTable(router, topology)
    n = topology.num_nodes
    pos = np.array([cur for cur, _ in pairs], dtype=np.int64)
    dst = np.array([d for _, d in pairs], dtype=np.int64)
    for _ in range(2):
        chan, deg = fresh.lookup(pos, dst)
        assert chan.shape == (len(pairs), table.width)
        cand = np.where(chan >= 0, fresh.channel_target[chan], -1)
        got = [tuple(row[:d]) for row, d in zip(cand.tolist(), deg.tolist())]
        assert got == expected
        assert all((row[d:] == -1).all() for row, d in zip(chan, deg))
        # A channel leaves its row's node, one channel per neighbour.
        moves = fresh.channels // n
        for row, d, cur in zip(chan.tolist(), deg.tolist(), pos.tolist()):
            assert [c // moves for c in row[:d]] == [cur] * d
            assert len(set(row[:d])) == d


@pytest.mark.parametrize("name,kind", CASES)
@SETTINGS
@given(data=st.data(), failures=st.integers(0, 2))
def test_both_reads_equal_router_candidates(name, kind, data, failures):
    topology = TOPOLOGIES[kind]()
    router = _router(name)
    links = sorted(topology.links.all_links)
    failed = []
    for _ in range(failures):
        pool = [link for link in links if link not in failed]
        # Half the time the second failed link shares a node with the
        # first, so one node's group row loses two links.
        if failed and data.draw(st.booleans(), label="shares a node"):
            pool = [link for link in pool if set(link) & set(failed[0])]
        failed.append(data.draw(st.sampled_from(pool), label="failed link"))
        topology.fail_link(*failed[-1])
    table = route_table(router, topology)
    if table is None:  # fully-adaptive misroutes around a failed link
        assert failed and name == "fully-adaptive"
        return
    n = topology.num_nodes
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda pair: pair[0] != pair[1]),
        min_size=1, max_size=24), label="pairs")
    _assert_reads(table, router, topology, pairs)


@pytest.mark.parametrize("isolate", [False, True],
                         ids=["intact", "node-0-isolated"])
@pytest.mark.parametrize("name,kind", CASES)
def test_every_pair(name, kind, isolate):
    """Exhaustively. Intact, this is the premise of the table's keying: a
    node's candidate moves depend on the sign class alone. With every link
    of node 0 down (both links of a mesh corner), node 0 routes nowhere
    and each neighbour reads its own group row, under either gate."""
    topology = TOPOLOGIES[kind]()
    if isolate:
        for neighbor in topology.neighbors(0):
            topology.fail_link(0, neighbor)
    router = _router(name)
    table = route_table(router, topology)
    if table is None:  # fully-adaptive misroutes around a failed link
        assert isolate and name == "fully-adaptive"
        return
    n = topology.num_nodes
    _assert_reads(table, router, topology, [
        (cur, dst) for cur in range(n) for dst in range(n) if cur != dst])


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
def test_offset_array_equals_distance_vector(kind):
    """Every pair, torus antipodes and k = 1 axes included."""
    topology = TOPOLOGIES[kind]()
    n = topology.num_nodes
    src = np.repeat(np.arange(n), n)
    dst = np.tile(np.arange(n), n)
    offsets = topology.offset_array(src, dst)
    assert offsets.shape == (n * n, len(topology.dims))
    assert [tuple(row) for row in offsets.tolist()] == [
        topology.distance_vector(u, v) for u, v in zip(src.tolist(), dst.tolist())]


@pytest.mark.parametrize("name", ["dor", "minimal-adaptive", "fully-adaptive"])
@pytest.mark.parametrize("build", [lambda: FatTree(4),
                                   lambda: ClusterMesh((2, 2), 2)],
                         ids=["fat-tree", "cluster-mesh"])
def test_coordinate_free_topologies_are_refused_at_build(name, build):
    """Offset-driven routers need coordinates; the fabric refuses them up
    front (naming TableRouter) rather than on the first hop."""
    with pytest.raises(RoutingError, match="TableRouter"):
        Fabric(build(), _router(name))


def test_one_lookup_answers_every_pair_of_a_20x20_mesh():
    """Every pair of a 20x20 mesh (160,000 reads) answers in one lookup,
    from the table's 9 sign-class rows."""
    topology = Mesh((20, 20))
    router = MinimalAdaptiveRouter()
    table = route_table(router, topology)
    n = topology.num_nodes
    pos = np.repeat(np.arange(n), n)
    dst = np.tile(np.arange(n), n)
    chan, deg = table.lookup(pos, dst)
    cand = np.where(chan >= 0, table.channel_target[chan], -1)
    rng = np.random.default_rng(1)
    for row in rng.integers(n * n, size=200).tolist():
        cur, d = divmod(row, n)
        assert tuple(cand[row, :deg[row]].tolist()) == \
            router.minimal_candidates(topology, cur, RouteState(d))


def test_table_is_rebuilt_when_the_link_version_changes():
    topology = Mesh((4, 4))
    router = MinimalAdaptiveRouter()
    warm = route_table(router, topology)
    assert route_table(router, topology) is warm
    assert warm.candidates(0, 15) == (4, 1)
    topology.fail_link(0, 4)
    cold = route_table(router, topology)
    assert cold is not warm
    assert cold.candidates(0, 15) == (1,)
    assert walk_route(topology, router, 0, 15, first_candidate)[1] == 1


def test_scalar_reads_fill_only_the_rows_they_touch():
    """A hypercube has n·2^d = n² (node, sign class) pairs. Scalar reads
    over every destination fill at most n tuples per column, and no table
    array but ``channel_target`` has more than one row per (link group,
    sign class): 2^d rows here, not n²."""
    topology = Hypercube(10)
    router = MinimalAdaptiveRouter()
    table = route_table(router, topology)
    n = topology.num_nodes
    seeded = len(table._rows)
    for dst in range(n):
        column = table[dst]
        assert len(column) == n and column[dst] == ()
        assert column[dst ^ 1] == (dst,)
        assert len(table._rows) - seeded <= n
        # Keep memory flat: forget this column and the rows it filled.
        table.clear()
        for row in list(table._rows)[seeded:]:
            del table._rows[row]
    groups = table._failed.size + 1
    assert all(value.shape[0] <= groups * table._classes
               for key, value in vars(table).items()
               if isinstance(value, np.ndarray) and key != "channel_target")


def test_paper_scale_cube_builds_no_second_table():
    """Table 3's 2^16-node hypercube: the route table's channel targets are
    the topology's neighbour table itself, not a copy computed beside it."""
    topology = Hypercube(16)
    n = topology.num_nodes
    assert topology.min_hops(0, n - 1) == 16
    table = route_table(MinimalAdaptiveRouter(), topology)
    assert np.shares_memory(table.channel_target, topology.neighbor_table())
    assert table.channels == topology.neighbor_table().size
    assert table.candidates(0, n - 1) == tuple(1 << bit for bit in range(15, -1, -1))


def test_moves_to_one_neighbour_share_a_channel():
    """A hypercube's minimal form lists both moves along each axis, and on
    a size-2 axis both reach the same neighbour: they must share its
    channel (the -1 move's, listed first), or admission would give that
    link twice the credit."""
    topology = Hypercube(3)
    table = RouteTable(MinimalAdaptiveRouter(), topology)
    n = topology.num_nodes
    moves = table.channels // n
    assert moves == 6
    pos = np.repeat(np.arange(n), n)
    dst = np.tile(np.arange(n), n)
    chan, deg = table.lookup(pos, dst)
    used = chan[chan >= 0]
    assert used.size == deg.sum() > 0
    assert (used % moves % 2 == 0).all()
    assert (table.channel_target[used] == table.channel_target[used + 1]).all()


class TestExactEngineInvalidation:
    """A warm table must not outlive a link failure on the exact engine.

    The switch's dead-channel fallback would hide a stale table (it steers
    to a live candidate and counts a reroute), so the checks are the path
    taken and an unchanged ``n_rerouted``.
    """

    @staticmethod
    def _send(fabric, paths):
        paths.append([])
        fabric.inject(fabric.make_packet(0, 15))
        fabric.run()
        return paths[-1]

    def test_fail_and_restore_reach_the_next_packet(self):
        fabric = Fabric(Mesh((4, 4)), MinimalAdaptiveRouter(),
                        selection=FirstCandidatePolicy())
        paths = []
        for node in fabric.topology.nodes():
            fabric.add_transit_observer(
                node, lambda packet, at, now: paths[-1].append(at))

        first = self._send(fabric, paths)
        assert first[:2] == [0, 4]  # axis 0 first: the table is warm
        fabric.fail_link(0, 4)
        rerouted = fabric.n_rerouted

        second = self._send(fabric, paths)
        assert second[:2] == [0, 1]
        assert fabric.n_rerouted == rerouted

        fabric.restore_link(0, 4)
        third = self._send(fabric, paths)
        assert third == first
        assert fabric.n_rerouted == rerouted
        assert fabric.n_delivered == 3

    def test_topology_failure_between_packets_reaches_the_next_packet(self):
        """A link failed on the topology itself leaves the channel up, so
        only the held column's link version can steer the next packet."""
        fabric = Fabric(Mesh((4, 4)), MinimalAdaptiveRouter(),
                        selection=FirstCandidatePolicy())
        paths = []
        for node in fabric.topology.nodes():
            fabric.add_transit_observer(
                node, lambda packet, at, now: paths[-1].append(at))

        first = self._send(fabric, paths)
        assert first[:2] == [0, 4]
        rerouted = fabric.n_rerouted
        fabric.topology.fail_link(0, 4)
        assert not fabric.channels[(0, 4)].failed

        second = self._send(fabric, paths)
        assert second[:2] == [0, 1]
        assert fabric._routes_version == fabric.topology.links.version
        assert fabric.n_rerouted == rerouted
