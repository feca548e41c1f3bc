"""The shared route table (repro.routing.plan) against the routers themselves.

Every engine reads a table-driven router's candidates from one
:class:`RouteTable`: the exact engine and ``walk_route`` through the scalar
read, the cohort engines through the columnar ``lookup``. Minimal routers on
meshes, tori and hypercubes are filled in closed form, so these properties
are what keeps that fill equal to the scalar ``minimal_candidates``: for
every registered table-driven router, both reads must answer exactly what
``router.candidates`` answers, order included.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.network import Fabric
from repro.registry import ROUTING
from repro.routing import FirstCandidatePolicy, MinimalAdaptiveRouter
from repro.routing.base import RouteState
from repro.routing.plan import RouteTable, next_hops, route_table
from repro.topology import Hypercube, Mesh, Torus

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
    "hypercube": lambda: Hypercube(4),
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
    """Stateless routers plus prefer-minimal fully-adaptive are tabled;
    the rest are asked live."""
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


@pytest.mark.parametrize("name,kind", CASES)
@SETTINGS
@given(data=st.data(), fail_one=st.booleans())
def test_both_reads_equal_router_candidates(name, kind, data, fail_one):
    topology = TOPOLOGIES[kind]()
    router = _router(name)
    if fail_one:
        links = sorted(topology.links.all_links)
        topology.fail_link(*links[data.draw(
            st.integers(0, len(links) - 1), label="failed link")])
    table = route_table(router, topology)
    if table is None:  # fully-adaptive misroutes around a failed link
        assert fail_one and name == "fully-adaptive"
        return
    n = topology.num_nodes
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda pair: pair[0] != pair[1]),
        min_size=1, max_size=24), label="pairs")
    expected = [_reference(router, topology, cur, dst) for cur, dst in pairs]

    # Scalar read, cold then warm.
    for _ in range(2):
        assert [table.candidates(cur, dst) for cur, dst in pairs] == expected

    # Columnar read on a fresh table (so it fills from its own lookups),
    # cold then warm; padding past each row's degree is -1.
    fresh = RouteTable(router, topology)
    pos = np.array([cur for cur, _ in pairs], dtype=np.int64)
    dst = np.array([d for _, d in pairs], dtype=np.int64)
    for _ in range(2):
        cand, deg = fresh.lookup(pos, dst)
        assert cand.shape == (len(pairs), table.width)
        got = [tuple(row[:d]) for row, d in zip(cand.tolist(), deg.tolist())]
        assert got == expected
        assert all((row[d:] == -1).all() for row, d in zip(cand, deg))


def test_columnar_fill_grows_past_its_first_block():
    """Every pair of a 20x20 mesh (160,000 keys) fills in one lookup."""
    topology = Mesh((20, 20))
    router = MinimalAdaptiveRouter()
    table = route_table(router, topology)
    n = topology.num_nodes
    pos = np.repeat(np.arange(n), n)
    dst = np.tile(np.arange(n), n)
    cand, deg = table.lookup(pos, dst)
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
    assert next_hops(router, topology, 0, RouteState(15)) == (1,)


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
