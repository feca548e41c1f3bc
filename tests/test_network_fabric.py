"""Integration tests for the fabric: injection, delivery, drops, failures."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network import Fabric, FabricConfig, StoreAndForward
from repro.network.packet import PacketKind
from repro.routing import (
    DimensionOrderRouter,
    FirstCandidatePolicy,
    FullyAdaptiveRouter,
    LeastCongestedPolicy,
    MinimalAdaptiveRouter,
    RandomPolicy,
    WestFirstRouter,
)
from repro.routing.plan import route_table
from repro.topology import Hypercube, Mesh, Torus


def build(topology=None, router=None, **cfg):
    topology = topology if topology is not None else Mesh((4, 4))
    router = router if router is not None else DimensionOrderRouter()
    return Fabric(topology, router, config=FabricConfig(**cfg))


class TestDelivery:
    def test_single_packet_delivered(self):
        fab = build()
        received = []
        fab.add_delivery_handler(15, lambda ev: received.append(ev))
        fab.inject(fab.make_packet(0, 15))
        fab.run()
        assert len(received) == 1
        assert received[0].packet.hops == fab.topology.min_hops(0, 15)
        assert fab.counters["delivered"] == 1

    def test_local_delivery_without_hops(self):
        fab = build()
        received = []
        fab.add_delivery_handler(5, lambda ev: received.append(ev))
        fab.inject(fab.make_packet(5, 5))
        fab.run()
        assert received[0].packet.hops == 0

    def test_latency_grows_with_distance(self):
        fab = build()
        near, far = [], []
        fab.add_delivery_handler(1, lambda ev: near.append(ev.packet.latency))
        fab.add_delivery_handler(15, lambda ev: far.append(ev.packet.latency))
        fab.inject(fab.make_packet(0, 1))
        fab.inject(fab.make_packet(0, 15))
        fab.run()
        assert far[0] > near[0]

    def test_many_packets_all_arrive(self):
        fab = build(topology=Torus((4, 4)))
        rng = np.random.default_rng(0)
        n = 200
        for i in range(n):
            src, dst = rng.integers(16, size=2)
            while dst == src:
                dst = rng.integers(16)
            fab.inject(fab.make_packet(int(src), int(dst)), delay=float(i) * 0.01)
        fab.run()
        assert fab.counters["delivered"] == n
        assert fab.counters["dropped"] == 0

    def test_stats_summary_fields(self):
        fab = build()
        fab.inject(fab.make_packet(0, 15))
        fab.run()
        stats = fab.stats_summary()
        assert stats["injected"] == 1
        assert stats["delivered"] == 1
        assert stats["mean_hops"] == 6


class TestSpoofing:
    def test_spoofed_source_preserved_in_header(self):
        fab = build()
        received = []
        fab.add_delivery_handler(15, lambda ev: received.append(ev.packet))
        fab.inject(fab.make_packet(0, 15, spoofed_src_ip=0xDEADBEEF))
        fab.run()
        assert received[0].header.src == 0xDEADBEEF
        assert received[0].true_source == 0  # ground truth intact

    def test_honest_source_by_default(self):
        fab = build()
        p = fab.make_packet(3, 15)
        assert p.header.src == fab.addresses.ip_of(3)


class TestDrops:
    def test_ttl_expiry_drops(self):
        fab = build(default_ttl=2)
        drops = []
        fab.add_drop_handler(lambda p, n, r: drops.append(r))
        fab.inject(fab.make_packet(0, 15))  # needs 6 hops
        fab.run()
        assert fab.counters["dropped_ttl_expired"] == 1
        assert drops == ["ttl_expired"]
        assert fab.counters["delivered"] == 0

    def test_unroutable_drops_on_deterministic_fault(self):
        topo = Mesh((4, 4))
        topo.fail_link(0, 1)
        topo.fail_link(0, 4)
        fab = Fabric(topo, DimensionOrderRouter())
        fab.inject(fab.make_packet(0, 15))
        fab.run()
        assert fab.counters["dropped_unroutable"] == 1

    def test_injection_filter_blocks(self):
        fab = build()
        fab.injection_filter = lambda packet, node: node != 0
        fab.inject(fab.make_packet(0, 15))
        fab.inject(fab.make_packet(1, 15))
        fab.run()
        assert fab.counters["dropped_filtered_at_source"] == 1
        assert fab.counters["delivered"] == 1


class TestLinkFailureMidRun:
    def test_fail_link_drops_queued_and_blocks_future(self):
        fab = build()
        fab.run_until(0.0)
        fab.fail_link(0, 1)
        fab.inject(fab.make_packet(0, 1))
        fab.run()
        # DOR's unique hop is dead -> unroutable.
        assert fab.counters["dropped_unroutable"] == 1

    def test_restore_link_recovers(self):
        fab = build()
        fab.fail_link(0, 1)
        fab.restore_link(0, 1)
        fab.inject(fab.make_packet(0, 1))
        fab.run()
        assert fab.counters["delivered"] == 1


class TestAdaptiveCongestion:
    def test_congestion_view_reflects_queues(self):
        fab = build()
        assert fab.congestion(0, 1) == 0.0
        for i in range(10):
            fab.inject(fab.make_packet(0, 3, payload_bytes=0))
        fab.run_until(0.005)
        assert fab.congestion(0, 1) > 0.0

    def test_least_congested_spreads_paths(self):
        topo = Mesh((4, 4))
        fab = Fabric(topo, MinimalAdaptiveRouter(),
                     config=FabricConfig(trace_packets=True))
        fab.selection = LeastCongestedPolicy(fab.congestion,
                                             np.random.default_rng(0))
        paths = set()
        fab.add_delivery_handler(15, lambda ev: paths.add(tuple(ev.packet.trace)))
        for i in range(50):
            fab.inject(fab.make_packet(0, 15), delay=i * 0.001)
        fab.run()
        assert len(paths) > 1  # adaptivity is live


class _Recording(LeastCongestedPolicy):
    """The policy through its generic ``choose``: a subclass is not read in
    place, so every decision goes through ``congestion``."""

    def __init__(self, congestion, rng):
        super().__init__(congestion, rng)
        self.choices = []

    def choose(self, candidates, current):
        choice = super().choose(candidates, current)
        self.choices.append(choice)
        return choice


class TestInPlaceLeastCongested:
    """The switches read a plain least-congested policy's occupancies in
    place; decisions and tie draws must equal ``LeastCongestedPolicy.choose``."""

    @staticmethod
    def _run(policy_for):
        fab = Fabric(Torus((4, 4)), MinimalAdaptiveRouter(),
                     config=FabricConfig(trace_packets=True))
        fab.selection = policy = policy_for(fab)
        traces = []
        for node in fab.topology.nodes():
            fab.add_delivery_handler(node, lambda ev: traces.append(
                (ev.packet.seq, tuple(ev.packet.trace))))
        rng = np.random.default_rng(3)
        for i in range(300):
            src, dst = rng.choice(16, size=2, replace=False).tolist()
            fab.inject(fab.make_packet(src, dst, seq=i), delay=i * 0.002)
        fab.run()
        return fab, policy, sorted(traces)

    @pytest.mark.parametrize("generic", [
        lambda fab: _Recording(fab.congestion, np.random.default_rng(7)),
        lambda fab: LeastCongestedPolicy(
            lambda u, v: fab.congestion(u, v), np.random.default_rng(7)),
    ], ids=["subclass", "custom-congestion"])
    def test_same_choices_and_tie_draws_as_choose(self, generic):
        fab, policy, traces = self._run(
            lambda fab: LeastCongestedPolicy(fab.congestion,
                                             np.random.default_rng(7)))
        assert fab._in_place == "least-congested"
        ref_fab, ref_policy, ref_traces = self._run(generic)
        assert ref_fab._in_place is None
        assert traces == ref_traces
        assert policy.rng.bit_generator.state == ref_policy.rng.bit_generator.state
        # The load was high enough for ties to draw from the generator.
        assert policy.rng.bit_generator.state != \
            np.random.default_rng(7).bit_generator.state

    def test_selection_reassigned_after_build_is_honoured(self):
        fab = Fabric(Torus((4, 4)), MinimalAdaptiveRouter())
        fab.selection = LeastCongestedPolicy(fab.congestion,
                                             np.random.default_rng(0))
        assert fab._in_place == "least-congested"
        recording = _Recording(fab.congestion, np.random.default_rng(0))
        fab.selection = recording
        assert fab.selection is recording and fab._in_place is None
        for i in range(20):
            fab.inject(fab.make_packet(0, 10), delay=i * 0.001)
        fab.run()
        assert fab.n_delivered == 20
        assert len(recording.choices) == 20 * fab.topology.min_hops(0, 10)


class _GenericFirst(FirstCandidatePolicy):
    """A subclass: applied through ``choose``, not in place."""


class _GenericRandom(RandomPolicy):
    """A subclass: applied through ``choose``, not in place."""


class TestInPlaceFirstAndRandom:
    """Plain first-candidate and random policies are applied in place too:
    same paths and the same single draw per multi-candidate hop as
    ``choose``, which a subclass still goes through."""

    @pytest.mark.parametrize("plain,generic,mode", [
        (FirstCandidatePolicy, _GenericFirst, "first"),
        (RandomPolicy, _GenericRandom, "random"),
    ], ids=["first", "random"])
    def test_same_paths_and_draws_as_choose(self, plain, generic, mode):
        def make(cls):
            return cls() if mode == "first" else cls(np.random.default_rng(7))

        fab, policy, traces = TestInPlaceLeastCongested._run(
            lambda fab: make(plain))
        assert fab._in_place == mode
        ref_fab, ref_policy, ref_traces = TestInPlaceLeastCongested._run(
            lambda fab: make(generic))
        assert ref_fab._in_place is None
        assert traces == ref_traces
        if mode == "random":
            assert policy.rng.bit_generator.state == \
                ref_policy.rng.bit_generator.state
            assert policy.rng.bit_generator.state != \
                np.random.default_rng(7).bit_generator.state


class TestValidation:
    def test_bad_nodes_rejected(self):
        fab = build()
        with pytest.raises(ConfigurationError):
            fab.make_packet(0, 99)
        with pytest.raises(ConfigurationError):
            fab.inject(fab.make_packet(0, 15), at_node=99)

    def test_fabric_config_validation(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(link_bandwidth=0)
        with pytest.raises(ConfigurationError):
            FabricConfig(buffer_capacity=0)
        with pytest.raises(ConfigurationError):
            FabricConfig(default_ttl=300)


class TestStoreAndForwardMode:
    def test_saf_slower_than_vct(self):
        lat = {}
        for name, service in (("saf", StoreAndForward()), ("vct", None)):
            topo = Mesh((4, 4))
            fab = Fabric(topo, DimensionOrderRouter(), service=service)
            fab.add_delivery_handler(15, lambda ev, n=name: lat.__setitem__(
                n, ev.packet.latency))
            fab.inject(fab.make_packet(0, 15, payload_bytes=400))
            fab.run()
        assert lat["saf"] > lat["vct"]


def _misroute_run(topology, router, failed):
    """Run 300 random-pair packets through the exact fabric on links failed
    before the run; return (misroutes, hops, events, drops by reason)."""
    for u, v in failed:
        topology.fail_link(u, v)
    fab = Fabric(topology, router,
                 selection=RandomPolicy(np.random.default_rng(5)),
                 config=FabricConfig(misroute_budget=3))
    assert route_table(router, topology) is None
    packets = []
    for node in topology.nodes():
        fab.add_delivery_handler(node, lambda ev: packets.append(ev.packet))
    rng = np.random.default_rng(11)
    for i in range(300):
        src, dst = rng.choice(topology.num_nodes, size=2, replace=False).tolist()
        fab.inject(fab.make_packet(src, dst, seq=i), delay=i * 0.001)
    fab.run()
    packets += [packet for packet, _, _ in fab.dropped_packets]
    drops = {name: count for name, count in fab.counters.as_dict().items()
             if name.startswith("dropped_")}
    return (sum(p.route_state.misroutes for p in packets),
            sum(p.hops for p in packets), fab.sim.events_executed, drops)


class TestMisroutesAskedLive:
    """Routers that can misroute and have no route table on the failed link
    state are asked live; their hops are counted against the misroute
    budget, which the routers read back. The counts are pinned."""

    def test_pooled_fully_adaptive_on_mesh(self):
        assert _misroute_run(
            Mesh((5, 5)), FullyAdaptiveRouter(prefer_minimal=False),
            [(6, 7), (12, 17)]) == (658, 2307, 7521, {"dropped_unroutable": 27})

    def test_fully_adaptive_on_torus(self):
        assert _misroute_run(
            Torus((4, 4)), FullyAdaptiveRouter(),
            [(0, 1), (5, 9)]) == (33, 692, 2676, {"dropped_unroutable": 4})

    def test_nonminimal_west_first_on_mesh(self):
        assert _misroute_run(
            Mesh((5, 5)), WestFirstRouter(minimal=False),
            [(7, 8), (11, 16)]) == (96, 1151, 4053, {"dropped_unroutable": 36})
