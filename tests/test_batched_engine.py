"""Unit tests for the batched cohort-advance engine and its plumbing.

The statistical-equivalence matrix lives in
``test_properties_batched_equivalence.py``; this file covers the engine's
mechanics: conservation accounting, the supported-feature guards, config
round-tripping (and cache-key stability for exact-mode configs), the CLI
surface, profiler integration, bulk injection, the run-once rule of both
cohort engines, the fabric seam, and a round-by-round differential test
against the engine's earlier round.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cluster import Cluster
from repro.core.config import (ExperimentConfig, MarkingSpec, RoutingSpec,
                               SelectionSpec, TopologySpec)
from repro.core.experiment import run_identification_experiment
from repro.engine import batched
from repro.engine.batched import CohortEngine
from repro.engine.contract import ENGINES
from repro.errors import ConfigurationError, EngineUnsupported, SimulationError
from repro.marking import (AuthenticatedDdpmScheme, DdpmScheme, DpmScheme,
                           HierarchicalDdpmScheme)
from repro.network.colqueue import BatchedFabric, InjectionLog
from repro.network.fabric import Fabric, FabricConfig
from repro.network.flowcontrol import StoreAndForward
from repro.network.packet import Packet, allocate_packet_ids
from repro.routing import (DimensionOrderRouter, MinimalAdaptiveRouter,
                           TableRouter)
from repro.routing.selection import (FirstCandidatePolicy,
                                     LeastCongestedPolicy, RandomPolicy)
from repro.topology import ClusterMesh, Hypercube, Mesh, Torus


def _noop():
    return None


class _ScalarOnlyDpm(DpmScheme):
    """A third-party DPM variant that overrides only the scalar hop."""

    name = "dpm-scalar-only"

    def on_hop(self, packet, from_node, to_node):
        super().on_hop(packet, from_node, to_node)


def _batched_cluster(*, config=None, marking="ddpm", seed=0,
                     engine="batched"):
    scheme = DdpmScheme() if marking == "ddpm" else None
    cluster = Cluster(Mesh((4, 4)), DimensionOrderRouter(), marking=scheme,
                      config=config, seed=seed, engine=engine)
    cluster.fabric.selection = FirstCandidatePolicy()
    if engine == "sharded":
        cluster.fabric.shard_mode = "serial"
    return cluster


def _base_config(**overrides):
    kwargs = dict(
        topology=TopologySpec("mesh", (4, 4)),
        routing=RoutingSpec("dor"),
        marking=MarkingSpec("ddpm"),
        selection=SelectionSpec("first"),
        seed=1, num_attackers=2, attack_rate_per_node=20.0,
        duration=0.5, background_rate=1.0,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ----------------------------------------------------------------------
# Conservation and retirement accounting
# ----------------------------------------------------------------------
class TestConservation:
    def test_injected_equals_delivered_plus_dropped(self):
        cluster = _batched_cluster()
        cluster.launch_ddos(num_attackers=3, attack_rate_per_node=30.0,
                            duration=1.0, background_rate=2.0)
        cluster.run()
        counters = cluster.fabric.counters
        assert cluster.fabric.n_injected > 0
        assert cluster.fabric.n_injected == (counters["delivered"]
                                             + counters["dropped"])

    def test_ttl_expiry_matches_exact_engine(self):
        # A 3-hop TTL on a 4x4 mesh expires every long route identically in
        # both engines (deterministic routing: same packets, same paths).
        results = {}
        for engine in ENGINES:
            cluster = Cluster(Mesh((4, 4)), DimensionOrderRouter(),
                              marking=DdpmScheme(),
                              config=FabricConfig(default_ttl=3),
                              seed=2, engine=engine)
            cluster.fabric.selection = FirstCandidatePolicy()
            cluster.launch_ddos(num_attackers=3, attack_rate_per_node=20.0,
                                duration=1.0, background_rate=2.0)
            cluster.run()
            stats = cluster.fabric.stats_summary()
            results[engine] = (int(stats.get("delivered", 0)),
                               int(stats.get("dropped", 0)),
                               int(stats.get("dropped_ttl_expired", 0)))
        assert results["batched"] == results["exact"]
        assert results["batched"][2] > 0, "workload never expired a TTL"


# ----------------------------------------------------------------------
# Supported-feature guards
# ----------------------------------------------------------------------
class TestGuards:
    def test_fault_campaign_config_is_rejected(self):
        from repro.faults import FaultCampaign, RandomLinkFlapSpec

        config = _base_config(
            engine="batched",
            faults=FaultCampaign((RandomLinkFlapSpec(probability=0.2),)))
        with pytest.raises(ConfigurationError, match="fault campaigns"):
            run_identification_experiment(config)

    def test_pending_discrete_events_are_rejected(self):
        cluster = _batched_cluster()
        cluster.sim.schedule_call(0.5, _noop, label="stray")
        with pytest.raises(ConfigurationError, match="discrete event"):
            cluster.run()

    def test_per_packet_observation_apis_raise(self):
        for engine in ("batched", "sharded"):
            fabric = Cluster(Mesh((4, 4)), DimensionOrderRouter(),
                             marking=DdpmScheme(), engine=engine).fabric
            calls = {
                "delivery handlers": (fabric.add_delivery_handler, 0, _noop),
                "drop handlers": (fabric.add_drop_handler, _noop),
                "transit observers": (fabric.add_transit_observer, 0, _noop),
                "congestion view": (fabric.congestion, 0, 1),
            }
            for api, (method, *args) in calls.items():
                with pytest.raises(ConfigurationError,
                                   match="engine='exact'") as refused:
                    method(*args)
                assert api in str(refused.value)

    def test_mid_run_link_failure_is_refused(self):
        # The route tables are built with the engine, so a link changed
        # after the run is refused rather than left for rows to cross.
        cluster = Cluster(Mesh((4, 4)), MinimalAdaptiveRouter(),
                          marking=DdpmScheme(), seed=4, engine="batched")
        cluster.fabric.selection = FirstCandidatePolicy()
        cluster.launch_ddos(victim=15, num_attackers=3,
                            attack_rate_per_node=25, duration=1,
                            background_rate=2)
        # Before the first run the topology is all there is to change.
        cluster.fabric.fail_link(0, 1)
        assert not cluster.topology.links.is_up(0, 1)
        cluster.fabric.restore_link(0, 1)
        cluster.run()
        for api in (cluster.fabric.fail_link, cluster.fabric.restore_link):
            with pytest.raises(ConfigurationError, match="engine='exact'"):
                api(11, 15)
        assert cluster.topology.links.is_up(11, 15)
        assert cluster.fabric.n_delivered == cluster.fabric.n_injected == 121

    def test_injection_filter_is_rejected(self):
        cluster = _batched_cluster()
        cluster.fabric.injection_filter = lambda packet, node: True
        cluster.launch_ddos(num_attackers=2, attack_rate_per_node=10.0,
                            duration=0.5)
        with pytest.raises(ConfigurationError, match="hooks"):
            cluster.run()

    @pytest.mark.parametrize("engine", ["batched", "sharded"])
    @pytest.mark.parametrize("scheme", ["ddpm-auth", "hddpm", "scalar-only"])
    def test_unsupported_marking_scheme_is_rejected(self, scheme, engine):
        # Each overrides a scalar switch-side method without its columnar
        # twin, so a cohort engine would run its parent's marking instead.
        if scheme == "hddpm":
            topo = ClusterMesh((2, 2), 2)
            router = TableRouter(topo)
            marking = HierarchicalDdpmScheme()
        else:
            topo = Mesh((4, 4))
            router = DimensionOrderRouter()
            marking = (AuthenticatedDdpmScheme({n: n + 1
                                                for n in topo.nodes()})
                       if scheme == "ddpm-auth" else _ScalarOnlyDpm())
        kwargs = {"shards": 2} if engine == "sharded" else {}
        cluster = Cluster(topo, router, marking=marking, seed=0,
                          engine=engine, **kwargs)
        cluster.launch_ddos(num_attackers=2, attack_rate_per_node=10.0,
                            duration=0.5)
        with pytest.raises(ConfigurationError,
                           match="engine='exact'") as refused:
            cluster.run()
        assert "marking scheme" in str(refused.value)
        assert cluster.fabric.counters["injected"] == 0  # no round ran

    def test_unsupported_router_is_rejected(self):
        from repro.routing import ValiantRouter

        cluster = Cluster(Torus((4, 4)),
                          ValiantRouter(np.random.default_rng(0)),
                          marking=DdpmScheme(), seed=0, engine="batched")
        cluster.launch_ddos(num_attackers=2, attack_rate_per_node=10.0,
                            duration=0.5)
        with pytest.raises(ConfigurationError):
            cluster.run()

    def test_unknown_engine_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            Cluster(Mesh((4, 4)), DimensionOrderRouter(), engine="warp")


# ----------------------------------------------------------------------
# Config plumbing and cache-key stability
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_engine_round_trips(self):
        config = _base_config(engine="batched")
        data = config.to_dict()
        assert data["engine"] == "batched"
        assert ExperimentConfig.from_dict(data).engine == "batched"

    def test_exact_config_omits_engine_key(self):
        # Pre-batched configs must keep their canonical JSON (and therefore
        # result-cache keys) byte for byte.
        data = _base_config().to_dict()
        assert "engine" not in data
        assert ExperimentConfig.from_dict(data).engine == "exact"

    def test_canonical_json_unchanged_by_engine_field(self):
        exact = _base_config()
        assert "engine" not in json.loads(exact.canonical_json())

    def test_bad_engine_value_rejected(self):
        data = _base_config().to_dict()
        data["engine"] = "warp"
        with pytest.raises(ConfigurationError, match="engine"):
            ExperimentConfig.from_dict(data)

    def test_from_config_builds_batched_fabric(self):
        cluster = Cluster.from_config(_base_config(engine="batched"))
        assert isinstance(cluster.fabric, BatchedFabric)
        assert cluster.engine == "batched"
        exact = Cluster.from_config(_base_config())
        assert not isinstance(exact.fabric, BatchedFabric)

    def test_experiment_runs_end_to_end(self):
        result = run_identification_experiment(_base_config(engine="batched"))
        assert result.packets_delivered > 0
        assert result.score.recall == 1.0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_engine_flag_smoke(self, capsys):
        from repro.cli import main

        code = main(["experiment", "--topology", "mesh", "--dims", "4", "4",
                     "--routing", "dor", "--marking", "ddpm",
                     "--duration", "0.5", "--engine", "batched"])
        assert code == 0
        assert "packets_delivered" in capsys.readouterr().out

    def test_engine_default_is_exact(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["experiment", "--topology", "mesh", "--dims", "4", "4"])
        assert args.engine == "exact"


# ----------------------------------------------------------------------
# Profiler integration
# ----------------------------------------------------------------------
class TestProfiler:
    def test_cohort_counters_recorded(self):
        from repro.engine.profile import EventProfiler

        profiler = EventProfiler()
        config = _base_config(engine="batched")
        result = run_identification_experiment(config, profile=profiler)
        assert profiler.batch_advances > 0
        # A row is moving in the round that delivers it.
        assert profiler.rows_moved >= result.packets_delivered
        stats = profiler.advance_stats()
        assert stats["advances"] == profiler.batch_advances
        assert stats["rows_moved"] == profiler.rows_moved
        assert stats["rows_parked"] == profiler.rows_parked
        assert sum(stats["moved_histogram"].values()) \
            == profiler.batch_advances
        assert "batch-advance@cohort" in profiler.as_dict()
        assert "rows parked" in profiler.report()

    def test_moved_and_parked_rows_split(self):
        """Two packets contend for the one credit of channel 0 -> 1.

        Round 1 moves both and parks the younger; round 2 delivers the
        older and admits the parked one; round 3 delivers it.
        """
        from repro.engine.profile import EventProfiler
        from repro.network.ip import IPHeader

        profiler = EventProfiler()
        cluster = Cluster(Mesh((4, 4)), DimensionOrderRouter(),
                          config=FabricConfig(buffer_capacity=1), seed=0,
                          profile=profiler, engine="batched")
        cluster.fabric.selection = FirstCandidatePolicy()
        for _ in range(2):
            cluster.fabric.inject(
                Packet(IPHeader(0, 1, ttl=8, total_length=84), 0, 1),
                at_node=0)
        cluster.run()
        assert cluster.fabric.counters["delivered"] == 2
        assert profiler.batch_advances == 3
        assert (profiler.rows_moved, profiler.rows_parked) == (4, 1)
        assert profiler.advance_stats()["moved_histogram"] == {1: 2, 2: 1}


# ----------------------------------------------------------------------
# Bulk injection plumbing
# ----------------------------------------------------------------------
class TestBulkInjection:
    def test_allocate_packet_ids_reserves_contiguous_block(self):
        start = allocate_packet_ids(5)
        from repro.network.ip import IPHeader

        packet = Packet(IPHeader(1, 2, ttl=8, total_length=84), 0, 1)
        assert packet.packet_id >= start + 5

    def test_allocate_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            allocate_packet_ids(-1)

    def test_injection_log_merges_scalar_and_bulk(self):
        log = InjectionLog()
        log.append(0.5, 1, 11, 2, 12, 84, 100)
        log.extend(np.array([0.25, 0.75]), np.array([3, 4]),
                   np.array([13, 14]), np.array([5, 6]),
                   np.array([15, 16]), np.array([84, 84]),
                   np.array([101, 102]))
        assert len(log) == 3
        columns = log.columns()
        assert columns["times"].tolist() == [0.25, 0.5, 0.75]
        assert columns["ids"].tolist() == [101, 100, 102]

    def test_injection_log_extend_length_mismatch(self):
        log = InjectionLog()
        with pytest.raises(ConfigurationError, match="length"):
            log.extend(np.array([0.1]), np.array([1, 2]), np.array([3]),
                       np.array([4]), np.array([5]), np.array([6]),
                       np.array([7]))

    def test_bulk_background_requires_batched_fabric(self):
        from repro.attack.traffic import (UniformRandomPattern,
                                          schedule_background_bulk)

        fabric = Fabric(Mesh((4, 4)), DimensionOrderRouter())
        with pytest.raises(ConfigurationError, match="batched"):
            schedule_background_bulk(fabric, UniformRandomPattern(),
                                     rate=5.0, duration=1.0,
                                     rng=np.random.default_rng(0))

    def test_bulk_background_checks_node_range_at_capture(self):
        from repro.attack.traffic import (UniformRandomPattern,
                                          schedule_background_bulk)

        fabric = BatchedFabric(Mesh((4, 4)), DimensionOrderRouter())
        with pytest.raises(ConfigurationError, match="node 40 outside"):
            schedule_background_bulk(fabric, UniformRandomPattern(),
                                     rate=20.0, duration=1.0,
                                     rng=np.random.default_rng(0),
                                     sources=[3, 40])
        assert len(fabric.log) == 0

    def test_bulk_background_runs_and_conserves(self):
        from repro.attack.traffic import (UniformRandomPattern,
                                          schedule_background_bulk)

        fabric = BatchedFabric(Mesh((4, 4)), MinimalAdaptiveRouter(),
                               marking=DdpmScheme())
        fabric.selection = FirstCandidatePolicy()
        ids = schedule_background_bulk(fabric, UniformRandomPattern(),
                                       rate=10.0, duration=1.0,
                                       rng=np.random.default_rng(3))
        fabric.run()
        assert fabric.n_injected == len(ids) > 0
        assert fabric.n_injected == (fabric.counters["delivered"]
                                     + fabric.counters["dropped"])


# ----------------------------------------------------------------------
# Both cohort engines run their capture once
# ----------------------------------------------------------------------
def _observables(fabric):
    return (fabric.n_injected, fabric.n_delivered, fabric.sim.now,
            tuple(nic.n_delivered for nic in fabric.nics))


@pytest.mark.parametrize("engine", ["batched", "sharded"])
class TestRunOnce:
    def _flood(self, cluster):
        cluster.launch_ddos(victim=cluster.default_victim(), num_attackers=3,
                            attack_rate_per_node=25.0, duration=1.0,
                            background_rate=2.0)

    def test_empty_capture_is_a_noop(self, engine):
        cluster = _batched_cluster(engine=engine)
        before = _observables(cluster.fabric)
        cluster.run()
        cluster.run()
        assert _observables(cluster.fabric) == before == (0, 0, 0.0,
                                                          (0,) * 16)

    def test_capture_after_a_run_is_refused(self, engine):
        cluster = _batched_cluster(engine=engine, seed=4)
        self._flood(cluster)
        cluster.run()
        after = _observables(cluster.fabric)
        assert after[0] > 0
        cluster.run()  # nothing new captured: a no-op
        assert _observables(cluster.fabric) == after
        self._flood(cluster)
        with pytest.raises(EngineUnsupported, match="engine='exact'") \
                as refused:
            cluster.run()
        assert refused.value.feature == "capture-after-run"
        assert _observables(cluster.fabric) == after

    def test_a_run_that_raised_is_not_run_again(self, engine, monkeypatch):
        # _step is the round both engines share; the sharded workers run
        # in-process here, so the patch reaches them.
        step, calls = CohortEngine._step, []

        def failing_step(self):
            calls.append(self)
            if len(calls) > 6:
                raise SimulationError("round failed")
            return step(self)

        cluster = _batched_cluster(engine=engine, seed=4)
        self._flood(cluster)
        monkeypatch.setattr(CohortEngine, "_step", failing_step)
        with pytest.raises(SimulationError, match="round failed"):
            cluster.run()
        monkeypatch.undo()
        failed = _observables(cluster.fabric)
        # Batched counts injections as rows activate; sharded merges its
        # counts only at the end.
        assert failed[0] < len(cluster.fabric.log)
        with pytest.raises(SimulationError, match="earlier .* run failed"):
            cluster.run()
        assert _observables(cluster.fabric) == failed


# ----------------------------------------------------------------------
# The fabric seam: cohort backends share the shell, not the exact graph
# ----------------------------------------------------------------------
class TestFabricSeam:
    @pytest.mark.parametrize("engine,shards", [("batched", None),
                                               ("sharded", 2)])
    def test_cohort_fabric_builds_no_switch_or_channel(self, monkeypatch,
                                                       engine, shards):
        from repro.network.channel import Channel
        from repro.network.switch import Switch

        built = []
        for cls in (Switch, Channel):
            def counting(self, *args, _original=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        # The flood-torus64-batched pipeline workload's fabric.
        config = ExperimentConfig(
            topology=TopologySpec("torus", (64, 64)),
            routing=RoutingSpec("minimal-adaptive"),
            marking=MarkingSpec("ddpm"),
            selection=SelectionSpec("least-congested"),
            engine=engine, shards=shards)
        fabric = Cluster.from_config(config).fabric
        assert not isinstance(fabric, Fabric)
        assert len(fabric.nics) == 64 * 64
        assert built == []
        # The counter does count: the exact backend builds both.
        Fabric(Mesh((2, 2)), DimensionOrderRouter())
        assert built.count("Switch") == 4 and built.count("Channel") == 8


# The flood-torus64-batched and hotspot-mesh16-dpm-batched pipeline
# workloads' experiments.
FLOOD_TORUS64 = ExperimentConfig(
    topology=TopologySpec("torus", (64, 64)),
    routing=RoutingSpec("minimal-adaptive"),
    marking=MarkingSpec("ddpm"),
    selection=SelectionSpec("least-congested"),
    attackers=(3971, 2429, 3517, 1788, 2251, 3702, 3606, 2730,
               166, 1453, 1576, 1612, 2953, 2228, 2851, 1895),
    num_attackers=16, attack_rate_per_node=100.0,
    background_rate=2.0, duration=2.0, engine="batched")
HOTSPOT_MESH16 = ExperimentConfig(
    topology=TopologySpec("mesh", (16, 16)),
    routing=RoutingSpec("xy"),
    marking=MarkingSpec("dpm"),
    selection=SelectionSpec("first"),
    attackers=(87, 109, 120, 121, 138, 150, 152, 186),
    num_attackers=8, attack_rate_per_node=400.0,
    background_rate=1.0, duration=5.0, engine="batched")


class TestLaunchBuildsNoPacket:
    """A cohort launch hands its rows to ``inject_rows`` as columns."""

    @staticmethod
    def _launch_counting(monkeypatch, config):
        built = []

        def counting(self, *args, _original=Packet.__init__, **kwargs):
            built.append(1)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(Packet, "__init__", counting)
        cluster = Cluster.from_config(config)
        truth = cluster.launch_ddos(
            victim=cluster.default_victim(), attackers=config.attackers,
            num_attackers=config.num_attackers,
            attack_rate_per_node=config.attack_rate_per_node,
            duration=config.duration, background_rate=config.background_rate)
        return cluster, truth, len(built)

    @pytest.mark.parametrize("config", [FLOOD_TORUS64, HOTSPOT_MESH16],
                             ids=["flood", "hotspot"])
    def test_cohort_launch_builds_no_packet(self, monkeypatch, config):
        cluster, truth, built = self._launch_counting(monkeypatch, config)
        launched = len(truth.attack_packets) + len(truth.background_packets)
        assert built == 0
        assert launched > 10_000 and len(cluster.fabric.log) == launched
        for ids in (truth.attack_packets, truth.background_packets):
            assert isinstance(ids, np.ndarray) and ids.dtype == np.int64
        assert np.array_equal(truth.attack_packet_ids,
                              np.sort(truth.attack_packets))

    def test_exact_launch_builds_one_packet_per_row(self, monkeypatch):
        # The counter does count: the exact backend builds every packet.
        config = dataclasses.replace(HOTSPOT_MESH16, engine="exact")
        _, truth, built = self._launch_counting(monkeypatch, config)
        launched = len(truth.attack_packets) + len(truth.background_packets)
        assert built == launched > 10_000


def test_no_engine_array_grows_with_node_pairs():
    """On the 64x64 torus of the flood workload and on a 2^12 hypercube
    (n = 4,096 both) no array the engine or its route table holds has n^2
    entries: a per-(node, node) port map alone would be 16.8 million, and
    so would a route table keyed by (node, sign class) on the hypercube."""
    for topology in (Torus((64, 64)), Hypercube(12)):
        cluster = Cluster(topology, MinimalAdaptiveRouter(),
                          marking=DdpmScheme(), seed=1, engine="batched")
        cluster.launch_ddos(num_attackers=2, attack_rate_per_node=20.0,
                            duration=0.2)
        cluster.run()
        engine = cluster.fabric._engine
        assert engine.rounds > 0 and cluster.fabric.n_delivered > 0
        n = topology.num_nodes
        arrays = [value for owner in (engine, engine.routes)
                  for value in vars(owner).values()
                  if isinstance(value, np.ndarray)]
        assert len(arrays) > 10
        assert max(array.size for array in arrays) < n * n // 64


# ----------------------------------------------------------------------
# Differential rounds: the engine against its earlier round, step by step
# ----------------------------------------------------------------------
_SLOT_MASK = (1 << 32) - 1


class _ReferenceRound(CohortEngine):
    """The cohort round as it stood before the parked store was reworked.

    Fresh keys merge into the parked keys by ``searchsorted`` + ``insert``,
    the wait is charged to each waiting slot, every delivery is tallied in
    its own round, and a channel is ``node * width + port``, the port being
    the neighbour's index in ``topology.neighbors(node)``. Candidates come
    from the route table's scalar read. Like the engine, it keeps no TTL
    column: a row's TTL is ``default_ttl - hops``.
    """

    def __init__(self, fabric):
        super().__init__(fabric)
        self.width = width = self.routes.width
        self._port = np.full(self.n * self.n, -1, dtype=np.int8)
        self._next_hop = np.full(self.n * width, -1, dtype=np.int64)
        for node in fabric.topology.nodes():
            for port, neighbor in enumerate(fabric.topology.neighbors(node)):
                self._port[node * self.n + neighbor] = port
                self._next_hop[node * width + port] = neighbor
        self._backlog = np.zeros(self.n * width, dtype=np.float64)
        self._delivered_counts = np.zeros(self.n, dtype=np.int64)
        self._hop_counts = np.zeros(64, dtype=np.int64)
        self._sink_rows = []

    def _candidate_matrix(self, pos, dst):
        rows = [self.routes.candidates(p, d)
                for p, d in zip(pos.tolist(), dst.tolist())]
        candidates = np.full((len(rows), self.width), -1, dtype=np.int64)
        for i, row in enumerate(rows):
            candidates[i, :len(row)] = row
        return candidates, np.array([len(row) for row in rows],
                                    dtype=np.int64)

    def _deliver(self, slots):
        nodes = self.pos[slots]
        times = self.time[slots]
        self._stats.n_delivered += slots.size
        self._delivered_counts += np.bincount(nodes, minlength=self.n)
        self._stats.latency.add_array(times - self.t0[slots])
        hops = self.hops[slots]
        counts = np.bincount(hops, minlength=self._hop_counts.size)
        if counts.size > self._hop_counts.size:
            counts[:self._hop_counts.size] += self._hop_counts
            self._hop_counts = counts
        else:
            self._hop_counts += counts
        self._max_time = max(self._max_time, float(times.max()))
        sunk = self._sink_mask[nodes]
        if sunk.any():
            rows = slots[sunk]
            self._sink_rows.append(
                (nodes[sunk], times[sunk], self.src_ip[rows],
                 self.dst_ip[rows], self.words[rows],
                 self.default_ttl - hops[sunk], hops[sunk], self.ids[rows],
                 rows, np.full(rows.size, self.rounds, dtype=np.int64)))

    def _route_and_advance(self):
        moving = self._moving
        if moving.size:
            pos = self.pos[moving]
            candidates, degrees = self._candidate_matrix(pos,
                                                         self.dst[moving])
            blocked = degrees == 0
            if blocked.any():
                self._drop(int(np.count_nonzero(blocked)), "unroutable")
                self._progressed = True
                routable = ~blocked
                moving = moving[routable]
                pos = pos[routable]
                candidates = candidates[routable]
                degrees = degrees[routable]
            if moving.size:
                cols = self._reference_choose(pos, candidates, degrees)
                nxt = candidates[np.arange(moving.size), cols]
                chan = pos * self.width + self._port[pos * self.n + nxt]
                keys = np.sort((chan << 32) | moving)
                parked = self._parked
                self._parked = np.insert(
                    parked, np.searchsorted(parked, keys), keys)
        parked = self._parked
        if not parked.size:
            self._moving = moving
            return
        quota = self.quota
        chan = parked >> 32
        admit = np.ones(parked.size, dtype=bool)
        if parked.size > quota:
            np.not_equal(chan[quota:], chan[:-quota], out=admit[quota:])
        moved = parked[admit]
        self._parked = waiting = parked[~admit]
        if waiting.size:
            self.time[waiting & _SLOT_MASK] += self.round_delta
        if self.mode == "congestion":
            self._backlog = np.bincount(
                chan[~admit], minlength=self._backlog.size).astype(np.float64)
        flipped = np.sort(((moved & _SLOT_MASK) << 32) | (moved >> 32))
        slots = flipped >> 32
        nxt = self._next_hop[flipped & _SLOT_MASK]
        hops = self.hops[slots] + 1
        self.hops[slots] = hops
        if self.marking is not None:
            self.words[slots] = self.marking.on_hop_array(
                self.words[slots], self.pos[slots], nxt,
                self.default_ttl - hops, self.marking_rng)
        cfg = self.fabric.config
        self.time[slots] += (cfg.routing_delay + self.hold[slots]
                             + cfg.link_latency)
        self.pos[slots] = nxt
        self._moving = slots
        self._progressed = True

    def _reference_choose(self, sub_pos, candidates, degrees):
        m = degrees.size
        if self.mode == "first" or candidates.shape[1] == 1:
            return np.zeros(m, dtype=np.int64)
        if self.mode == "random":
            return (self.rng.random(m) * degrees).astype(np.int64)
        width = candidates.shape[1]
        ports = self._port[sub_pos[:, None] * self.n + candidates]
        score = self._backlog[sub_pos[:, None] * self.width + ports] \
            + self.rng.random((m, width))
        score[candidates < 0] = np.inf
        return np.argmin(score, axis=1)


class _AdmissionProbe(CohortEngine):
    """The engine under test, counting each round's admissions per
    directed channel (the rows that left a node for a neighbour)."""

    most_admitted = 0

    def _route_and_advance(self):
        before = self.pos.copy()
        super()._route_and_advance()
        admitted = self._moving
        if admitted.size:
            channels = before[admitted] * self.n + self.pos[admitted]
            self.most_admitted = max(self.most_admitted,
                                     int(np.bincount(channels).max()))


_ROUND_TOPOLOGIES = {
    "mesh4x4": lambda: Mesh((4, 4)),
    "mesh3x5": lambda: Mesh((3, 5)),
    "torus4x4": lambda: Torus((4, 4)),
    "torus3x5": lambda: Torus((3, 5)),
    # Every axis has size 2: both moves along it reach one neighbour.
    "hypercube4": lambda: Hypercube(4),
}


def _round_cluster(topology, routing, selection, saf, quota, marking,
                   seed):
    scheme = (DpmScheme() if marking == "dpm"
              else MarkingSpec("ppm-full", probability=0.3).build(
                  np.random.default_rng(seed), topology))
    router = (DimensionOrderRouter() if routing == "dor"
              else MinimalAdaptiveRouter())
    cluster = Cluster(topology, router, marking=scheme,
                      config=FabricConfig(buffer_capacity=quota), seed=seed,
                      engine="batched")
    fabric = cluster.fabric
    if saf:
        fabric.service = StoreAndForward()
    if selection == "first":
        fabric.selection = FirstCandidatePolicy()
    elif selection == "random":
        fabric.selection = RandomPolicy(cluster.sim.rng.stream("selection"))
    else:
        fabric.selection = LeastCongestedPolicy(fabric.congestion)
    victim = cluster.default_victim()
    fabric.attach_delivery_sink(victim, lambda batch: None)
    cluster.launch_ddos(victim=victim, num_attackers=3,
                        attack_rate_per_node=60.0, duration=0.5,
                        background_rate=4.0)
    return fabric


def _parked_as_reference_keys(engine, reference):
    """The engine's parked keys with each channel renumbered the way the
    reference numbers it: channel numbering enters no result."""
    keys = engine._parked
    chan = keys >> 32
    nodes = engine.pos[keys & _SLOT_MASK]
    nxt = engine.routes.channel_target[chan]
    port = reference._port[nodes * engine.n + nxt].astype(np.int64)
    return np.sort(((nodes * reference.width + port) << 32)
                   | (keys & _SLOT_MASK))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(topology=st.sampled_from(sorted(_ROUND_TOPOLOGIES)),
       routing=st.sampled_from(["dor", "minimal-adaptive"]),
       selection=st.sampled_from(["first", "random", "least-congested"]),
       saf=st.booleans(), quota=st.integers(1, 4),
       marking=st.sampled_from(["dpm", "ppm-full"]),
       seed=st.integers(0, 2**16))
def test_rounds_equal_the_reference_round(topology, routing, selection, saf,
                                          quota, marking, seed):
    """Step the engine and the reference round in lockstep: same parked
    keys, same live rows, same sink rows, and the admission invariants."""
    engines = []
    for cls in (_AdmissionProbe, _ReferenceRound):
        fabric = _round_cluster(_ROUND_TOPOLOGIES[topology](), routing,
                                selection, saf, quota, marking, seed)
        engine = cls(fabric)
        pending = fabric.log.columns()
        engine._install(pending,
                        np.arange(pending["times"].size, dtype=np.int64))
        engine.frontier = float(engine._times[0])
        engines.append(engine)
    probe, reference = engines
    total = probe._times.size
    waited = False
    while probe._next < total or probe.live():
        for engine in engines:
            engine._round()
            engine.rounds += 1
        parked = probe._parked
        waited = waited or parked.size > 0
        assert (np.diff(parked) > 0).all()
        assert np.array_equal(_parked_as_reference_keys(probe, reference),
                              reference._parked)
        live = np.sort(np.concatenate([probe._moving,
                                       parked & _SLOT_MASK]))
        assert np.array_equal(live, np.sort(np.concatenate(
            [reference._moving, reference._parked & _SLOT_MASK])))
        for column in ("pos", "hops", "time"):
            assert np.array_equal(getattr(probe, column)[live],
                                  getattr(reference, column)[live])
    assert reference.live() == 0 and reference._next == total
    assert waited and 0 < probe.most_admitted <= quota

    delivered, hop_counts, sink = probe._tally()
    assert np.array_equal(delivered, reference._delivered_counts)
    assert np.array_equal(np.trim_zeros(hop_counts, "b"),
                          np.trim_zeros(reference._hop_counts, "b"))
    assert probe._max_time == reference._max_time
    expected = [np.concatenate(parts)
                for parts in zip(*reference._sink_rows)]
    assert sink is not None and len(sink) == len(expected)
    # Packet ids come from a process-wide counter: compare them relative
    # to each capture's first.
    sink = list(sink)
    sink[7] = sink[7] - probe.ids.min()
    expected[7] = expected[7] - reference.ids.min()
    for got, want in zip(sink, expected):
        assert np.array_equal(got, want)
    def totals(fabric):
        latency = fabric.latency
        return (fabric.n_injected, fabric.n_delivered, fabric.n_dropped,
                latency.count, latency._mean, latency._m2, latency.min,
                latency.max)

    assert totals(probe.fabric) == totals(reference.fabric)


@pytest.mark.parametrize("hot_rounds", [1, 2])
def test_cold_tier_rounds_equal_the_reference_round(monkeypatch, hot_rounds):
    """The differential rounds again, with the hot tier cut to one or two
    rounds of admissions: the small clusters then spill keys to the cold
    tier and rebalance every round or every other round."""
    spilled = []
    rebalance = CohortEngine._rebalance

    def spy(self, fresh):
        hot = rebalance(self, fresh)
        spilled.append(self._cold.size)
        return hot

    monkeypatch.setattr(batched, "_HOT_ROUNDS", hot_rounds)
    monkeypatch.setattr(CohortEngine, "_rebalance", spy)
    test_rounds_equal_the_reference_round()
    assert max(spilled) > 0
