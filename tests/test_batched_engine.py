"""Unit tests for the batched cohort-advance engine and its plumbing.

The statistical-equivalence matrix lives in
``test_properties_batched_equivalence.py``; this file covers the engine's
mechanics: conservation accounting, the supported-feature guards, config
round-tripping (and cache-key stability for exact-mode configs), the CLI
surface, profiler integration, bulk injection, and the fabric seam.
"""

import json

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.config import (ExperimentConfig, MarkingSpec, RoutingSpec,
                               SelectionSpec, TopologySpec)
from repro.core.experiment import run_identification_experiment
from repro.engine.contract import ENGINES
from repro.errors import ConfigurationError
from repro.marking import (AuthenticatedDdpmScheme, DdpmScheme, DpmScheme,
                           HierarchicalDdpmScheme)
from repro.network.colqueue import BatchedFabric, InjectionLog
from repro.network.fabric import Fabric, FabricConfig
from repro.network.packet import Packet, allocate_packet_ids
from repro.routing import (DimensionOrderRouter, MinimalAdaptiveRouter,
                           TableRouter)
from repro.routing.selection import FirstCandidatePolicy
from repro.topology import ClusterMesh, Mesh, Torus


def _noop():
    return None


class _ScalarOnlyDpm(DpmScheme):
    """A third-party DPM variant that overrides only the scalar hop."""

    name = "dpm-scalar-only"

    def on_hop(self, packet, from_node, to_node):
        super().on_hop(packet, from_node, to_node)


def _batched_cluster(*, config=None, marking="ddpm", seed=0):
    scheme = DdpmScheme() if marking == "ddpm" else None
    cluster = Cluster(Mesh((4, 4)), DimensionOrderRouter(), marking=scheme,
                      config=config, seed=seed, engine="batched")
    cluster.fabric.selection = FirstCandidatePolicy()
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
        # The route tables are built with the engine, so a link failed
        # after the first run would be crossed anyway: 121 delivered where
        # the exact engine delivers 40 and drops 81.
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
        cluster.run(until=0.3)
        for api in (cluster.fabric.fail_link, cluster.fabric.restore_link):
            with pytest.raises(ConfigurationError, match="engine='exact'"):
                api(11, 15)
        assert cluster.topology.links.is_up(11, 15)
        cluster.run()
        assert cluster.fabric.n_delivered == cluster.fabric.n_injected == 121

    def test_run_until_rejects_store_and_forward(self):
        from repro.network.flowcontrol import StoreAndForward

        fabric = BatchedFabric(Mesh((4, 4)), DimensionOrderRouter(),
                               marking=DdpmScheme(),
                               service=StoreAndForward())
        fabric.selection = FirstCandidatePolicy()
        with pytest.raises(ConfigurationError, match="run_until"):
            fabric.run_until(1.0)

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
# Partial-horizon advance: run_until on the batched engine
# ----------------------------------------------------------------------
class TestRunUntil:
    """run_until cuts one capture into segments at round boundaries.

    Correctness rests on the virtual-cut-through lag invariant (see
    ``CohortEngine.advance``): every live row's lag behind the frontier is
    fixed at activation, so rounds on either side of a cut never interleave
    in simulated time and a segmented run must reproduce the single-run
    results bit for bit.
    """

    def _arm(self, seed=4):
        cluster = _batched_cluster(seed=seed)
        victim = cluster.default_victim()
        batches = []
        cluster.fabric.attach_delivery_sink(
            victim,
            lambda batch: batches.append((np.asarray(batch.times).copy(),
                                          np.asarray(batch.sources).copy())))
        cluster.launch_ddos(victim=victim, num_attackers=3,
                            attack_rate_per_node=25.0, duration=1.0,
                            background_rate=2.0)
        return cluster, batches

    def _observables(self, cluster, batches):
        times = (np.concatenate([t for t, _ in batches])
                 if batches else np.empty(0))
        sources = (np.concatenate([s for _, s in batches])
                   if batches else np.empty(0))
        return (tuple(n.n_delivered for n in cluster.fabric.nics),
                int(cluster.fabric.counters["delivered"]),
                int(cluster.fabric.counters["dropped"]),
                cluster.sim.now,
                times.tolist(), sources.tolist())

    def test_segmented_run_is_bit_identical(self):
        full_cluster, full_batches = self._arm()
        full_cluster.run()
        full = self._observables(full_cluster, full_batches)

        seg_cluster, seg_batches = self._arm()
        now = seg_cluster.run(until=0.3)
        assert now >= 0.3
        mid_delivered = int(seg_cluster.fabric.counters["delivered"])
        assert 0 < mid_delivered < full[1], "cut did not split the run"
        seg_cluster.run(until=0.7)
        seg_cluster.run()
        assert self._observables(seg_cluster, seg_batches) == full

    def test_run_until_timeline_is_monotonic(self):
        cluster, _ = self._arm()
        t1 = cluster.run(until=0.2)
        t2 = cluster.run(until=0.5)
        t3 = cluster.run(until=0.5)  # idempotent horizon
        assert t1 <= t2 <= t3
        # A horizon in the past advances nothing further.
        assert cluster.run(until=0.1) == t3

    def test_injections_between_segments_are_folded_in(self):
        """New traffic captured after a cut (at later times) joins the
        pending set; capture at-or-before the consumed frontier refuses."""
        cluster, _ = self._arm()
        cluster.run(until=0.4)
        from repro.network.ip import IPHeader

        late = Packet(IPHeader(0, 5, ttl=8, total_length=84), 0, 5)
        cluster.fabric.inject(late, at_node=0, delay=0.0)
        # sim.now is past 0.4, so this injection lands after the frontier
        # and must be folded into the remaining run.
        cluster.run()
        baseline, _ = self._arm()
        baseline.run()
        assert cluster.fabric.n_injected == baseline.fabric.n_injected + 1

    def test_segmented_matches_exact_engine_end_state(self):
        """Segmenting must not change what the exact engine would compute:
        final delivered/dropped totals and per-node counts still match the
        per-packet reference (deterministic routing + marking)."""
        exact = Cluster(Mesh((4, 4)), DimensionOrderRouter(),
                        marking=DdpmScheme(), seed=4, engine="exact")
        exact.fabric.selection = FirstCandidatePolicy()
        exact.launch_ddos(victim=exact.default_victim(), num_attackers=3,
                          attack_rate_per_node=25.0, duration=1.0,
                          background_rate=2.0)
        exact.run()

        seg, _ = self._arm(seed=4)
        seg.run(until=0.25)
        seg.run(until=0.75)
        seg.run()
        assert (tuple(n.n_delivered for n in seg.fabric.nics)
                == tuple(n.n_delivered for n in exact.fabric.nics))
        assert (seg.fabric.counters["delivered"]
                == exact.fabric.counters["delivered"])
        assert (seg.fabric.counters["dropped"]
                == exact.fabric.counters["dropped"])

    def test_cluster_run_until_path(self):
        """Cluster.run(until=...) reaches the fabric's partial horizon."""
        cluster, batches = self._arm()
        cluster.run(until=0.5)
        assert batches, "no deliveries flushed at the first horizon"


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
