"""Sharded multi-process engine: construction, sync, merge, and plumbing.

Bit-level identity with the batched engine is property-tested in
``test_properties_batched_equivalence.py``; this file covers the sharded
engine's own machinery — shard-count validation, worker transports,
conservation, the unsupported-feature guards (each naming its fallback),
config/CLI plumbing, profiler window counters, and repeat runs.
"""

import json

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.config import (ExperimentConfig, MarkingSpec, RoutingSpec,
                               SelectionSpec, TopologySpec)
from repro.engine.profile import EventProfiler
from repro.engine.sharded import _ShardCohortEngine
from repro.errors import ConfigurationError
from repro.marking.ddpm import DdpmScheme
from repro.network.fabric import FabricConfig
from repro.routing import DimensionOrderRouter
from repro.routing.selection import FirstCandidatePolicy
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus


def _noop():
    return None


def _sharded_cluster(shards=2, mode="serial", seed=0, dims=(4, 4),
                     profile=None):
    cluster = Cluster(Torus(dims), DimensionOrderRouter(),
                      marking=DdpmScheme(), seed=seed, engine="sharded",
                      shards=shards, profile=profile)
    cluster.fabric.shard_mode = mode
    cluster.fabric.selection = FirstCandidatePolicy()
    return cluster


def _flood(cluster, duration=0.5, num_attackers=2, rate=25.0):
    return cluster.launch_ddos(victim=cluster.default_victim(),
                               num_attackers=num_attackers,
                               attack_rate_per_node=rate,
                               duration=duration, background_rate=1.0)


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------
class TestConstruction:
    def test_engine_name(self):
        cluster = _sharded_cluster()
        assert cluster.fabric.engine_name == "sharded"
        assert cluster.engine == "sharded"

    def test_default_shard_count(self):
        cluster = Cluster(Mesh((4, 4)), DimensionOrderRouter(),
                          marking=DdpmScheme(), engine="sharded")
        assert cluster.fabric.shards == cluster.fabric.DEFAULT_SHARDS

    def test_rejects_non_int_shards(self):
        with pytest.raises(ConfigurationError, match="shards"):
            _sharded_cluster(shards="2")
        with pytest.raises(ConfigurationError, match="shards"):
            _sharded_cluster(shards=True)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigurationError, match="shards"):
            _sharded_cluster(shards=0)

    def test_rejects_more_shards_than_nodes(self):
        cluster = _sharded_cluster(shards=17, dims=(4, 4))
        _flood(cluster)
        with pytest.raises(ConfigurationError, match="num_nodes"):
            cluster.run()

    def test_shards_kwarg_rejected_for_other_engines(self):
        with pytest.raises(ConfigurationError, match="sharded"):
            Cluster(Mesh((4, 4)), DimensionOrderRouter(),
                    marking=DdpmScheme(), engine="batched", shards=2)

    def test_bad_shard_mode_rejected(self):
        cluster = _sharded_cluster(mode="threads")
        _flood(cluster)
        with pytest.raises(ConfigurationError, match="shard mode"):
            cluster.run()


# ----------------------------------------------------------------------
# Conservation and determinism across transports and shard counts
# ----------------------------------------------------------------------
class TestConservation:
    def test_packet_conservation(self):
        cluster = _sharded_cluster(shards=4)
        _flood(cluster)
        cluster.run()
        counters = cluster.fabric.counters
        assert counters["injected"] > 0
        assert counters["injected"] == (counters["delivered"]
                                        + counters["dropped"])

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_results_independent_of_shard_count(self, shards):
        """Where draws cannot reach outcomes (DDPM, dimension order, first
        candidate), every K gives the same observable results."""
        results = {}
        for k in (2, shards):
            cluster = _sharded_cluster(shards=k, seed=7)
            _flood(cluster)
            cluster.run()
            nics = cluster.fabric.nics
            results[k] = (
                tuple(n.n_delivered for n in nics),
                int(cluster.fabric.counters["delivered"]),
                int(cluster.fabric.counters["dropped"]),
                cluster.sim.now,
            )
        assert results[shards] == results[2]

    def test_process_and_serial_transports_identical(self):
        results = {}
        for mode in ("serial", "process"):
            cluster = _sharded_cluster(shards=3, mode=mode, seed=11)
            _flood(cluster)
            cluster.run()
            results[mode] = (
                tuple(n.n_delivered for n in cluster.fabric.nics),
                dict(cluster.fabric._drop_reasons),
                cluster.sim.now,
                cluster.fabric.latency.count,
            )
        assert results["process"] == results["serial"]

    def test_repeat_run_without_new_capture_is_a_noop(self):
        cluster = _sharded_cluster(seed=4)
        batches = []
        cluster.fabric.attach_delivery_sink(cluster.default_victim(),
                                            batches.append)
        _flood(cluster)
        cluster.run()
        first = (cluster.fabric.n_injected, cluster.fabric.n_delivered,
                 tuple(n.n_delivered for n in cluster.fabric.nics),
                 sum(len(batch) for batch in batches), cluster.sim.now)
        assert first[0] > 0
        cluster.run()
        assert (cluster.fabric.n_injected, cluster.fabric.n_delivered,
                tuple(n.n_delivered for n in cluster.fabric.nics),
                sum(len(batch) for batch in batches),
                cluster.sim.now) == first


# ----------------------------------------------------------------------
# Unsupported features refuse loudly, naming the fallback
# ----------------------------------------------------------------------
class TestGuards:
    def test_run_until_names_batched_fallback(self):
        """A partial-horizon run is refused before any packet moves. The
        batched engine refuses ``until`` as well, so the named fallback is
        the exact engine."""
        cluster = _sharded_cluster()
        _flood(cluster)
        with pytest.raises(ConfigurationError, match="engine='exact'"):
            cluster.run(until=0.25)
        assert cluster.fabric.n_delivered == 0

    def test_pending_discrete_events_rejected(self):
        cluster = _sharded_cluster()
        cluster.sim.schedule_call(0.1, _noop, label="probe")
        _flood(cluster)
        with pytest.raises(ConfigurationError, match="engine='exact'"):
            cluster.run()

    def test_per_packet_hooks_rejected(self):
        cluster = _sharded_cluster()
        cluster.fabric.injection_filter = lambda packet: True
        _flood(cluster)
        with pytest.raises(ConfigurationError, match="engine='exact'"):
            cluster.run()

    def test_per_packet_delivery_handler_rejected(self):
        cluster = _sharded_cluster()
        with pytest.raises(ConfigurationError, match="engine='exact'"):
            cluster.fabric.add_delivery_handler(0, lambda event: None)


# ----------------------------------------------------------------------
# Config / CLI plumbing
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def _config(self, **overrides):
        base = dict(
            topology=TopologySpec("torus", (4, 4)),
            routing=RoutingSpec("dor"),
            marking=MarkingSpec("ddpm"),
            selection=SelectionSpec("first"),
            seed=1, num_attackers=2, attack_rate_per_node=20.0,
            duration=0.5, background_rate=1.0,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_shards_omitted_when_unset(self):
        """Cache-key stability: configs that never mention shards keep
        their exact pre-sharded canonical JSON."""
        config = self._config()
        data = config.to_dict()
        assert "shards" not in data
        assert "engine" not in data

    def test_round_trip_with_shards(self):
        config = self._config(engine="sharded", shards=4)
        rebuilt = ExperimentConfig.from_dict(
            json.loads(config.canonical_json()))
        assert rebuilt == config
        assert rebuilt.shards == 4

    def test_bad_shards_value_rejected(self):
        data = self._config(engine="sharded").to_dict()
        data["shards"] = 0
        with pytest.raises(ConfigurationError, match="shards"):
            ExperimentConfig.from_dict(data)
        data["shards"] = True
        with pytest.raises(ConfigurationError, match="shards"):
            ExperimentConfig.from_dict(data)

    def test_from_config_builds_sharded_fabric(self):
        config = self._config(engine="sharded", shards=3)
        cluster = Cluster.from_config(config)
        assert cluster.fabric.engine_name == "sharded"
        assert cluster.fabric.shards == 3

    def test_experiment_end_to_end(self):
        from repro.core.experiment import run_identification_experiment

        config = self._config(engine="sharded", shards=2)
        result = run_identification_experiment(config)
        assert result.packets_delivered > 0

    def test_cli_flag_smoke(self, capsys):
        from repro.cli import main

        code = main(["experiment", "--topology", "torus", "--dims", "4", "4",
                     "--marking", "ddpm", "--routing", "dor",
                     "--engine", "sharded", "--shards", "2",
                     "--attackers", "2", "--duration", "0.5"])
        assert code == 0
        assert "delivered" in capsys.readouterr().out

    def test_cli_shards_requires_sharded_engine(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--engine sharded"):
            main(["experiment", "--topology", "torus", "--dims", "4", "4",
                  "--marking", "ddpm", "--routing", "dor",
                  "--shards", "2"])


# ----------------------------------------------------------------------
# Profiler window counters
# ----------------------------------------------------------------------
class TestProfiler:
    def test_shard_window_counters(self):
        profiler = EventProfiler()
        cluster = _sharded_cluster(shards=4, profile=profiler)
        _flood(cluster)
        cluster.run()
        stats = profiler.shard_window_stats()
        assert stats["windows"] > 0
        # A 4-shard torus flood toward one victim must cross boundaries.
        assert stats["boundary_rows"] > 0
        assert stats["max_boundary_occupancy"] > 0
        assert stats["max_boundary_occupancy"] <= stats["boundary_rows"]
        assert "shard-window@sync" in profiler.as_dict()

    def test_counters_reset(self):
        profiler = EventProfiler()
        profiler.record_shard_window(5, 1)
        profiler.reset()
        assert profiler.shard_window_stats() == {
            "windows": 0, "boundary_rows": 0,
            "max_boundary_occupancy": 0, "sync_stalls": 0}


# ----------------------------------------------------------------------
# Merge-layer details
# ----------------------------------------------------------------------
class TestMerge:
    def test_latency_statistics_match_batched(self):
        observed = {}
        for engine in ("batched", "sharded"):
            cluster = Cluster(
                Torus((4, 4)), DimensionOrderRouter(), marking=DdpmScheme(),
                seed=2, engine=engine,
                shards=3 if engine == "sharded" else None)
            if engine == "sharded":
                cluster.fabric.shard_mode = "serial"
            cluster.fabric.selection = FirstCandidatePolicy()
            _flood(cluster)
            cluster.run()
            latency = cluster.fabric.latency
            observed[engine] = (latency.count, latency.min, latency.max,
                                pytest.approx(latency.mean, rel=1e-12))
        assert observed["sharded"] == observed["batched"]

    def test_hop_histogram_matches_batched(self):
        observed = {}
        for engine in ("batched", "sharded"):
            cluster = Cluster(
                Torus((4, 4)), DimensionOrderRouter(), marking=DdpmScheme(),
                seed=2, engine=engine,
                shards=4 if engine == "sharded" else None)
            if engine == "sharded":
                cluster.fabric.shard_mode = "serial"
            cluster.fabric.selection = FirstCandidatePolicy()
            _flood(cluster)
            cluster.run()
            observed[engine] = dict(cluster.fabric.hop_histogram.counts())
        assert observed["sharded"] == observed["batched"]

    def test_sink_stream_time_ordered(self):
        """The merged delivery stream each sink sees is time-sorted even
        though it is assembled from per-shard fragments."""
        cluster = _sharded_cluster(shards=4, seed=9)
        victim = cluster.default_victim()
        seen = []
        cluster.fabric.attach_delivery_sink(
            victim, lambda batch: seen.append(np.asarray(batch.times).copy()))
        _flood(cluster)
        cluster.run()
        times = np.concatenate(seen) if seen else np.empty(0)
        assert times.size > 0
        assert np.all(np.diff(times) >= 0)


# ----------------------------------------------------------------------
# The wait window of a shard
# ----------------------------------------------------------------------
def test_absorbed_row_waiting_above_the_shards_own_slots():
    """A row absorbed from the other shard, with a slot above every slot
    its new shard activated, waits there for a channel: it is charged for
    each round it waits, exactly as on the batched engine."""
    mesh = Mesh((4, 4))  # two slabs: x < 2 is shard 0, x >= 2 shard 1
    local, victim, neighbour = mesh.index((2, 0)), mesh.index((3, 0)), \
        mesh.index((1, 0))
    observed = {}
    waited = []
    for engine in ("batched", "sharded"):
        cluster = Cluster(mesh, DimensionOrderRouter(), marking=DdpmScheme(),
                          config=FabricConfig(buffer_capacity=2), seed=3,
                          engine=engine,
                          shards=2 if engine == "sharded" else None)
        fabric = cluster.fabric
        fabric.selection = FirstCandidatePolicy()
        if engine == "sharded":
            fabric.shard_mode = "serial"
        rows = []
        fabric.attach_delivery_sink(
            victim, lambda batch: rows.append(
                (np.asarray(batch.times).copy(),
                 np.asarray(batch.hops).copy())))
        # Six rows queue on the channel local -> victim inside shard 1;
        # the last row, injected a moment later in shard 0, joins them
        # there one hop on.
        fabric.inject_rows([0.0] * 6, [local] * 6, [victim] * 6)
        fabric.inject_rows([1e-9], [neighbour], [victim])
        if engine == "sharded":
            original = _ShardCohortEngine.advance_window

            def spy(self, frontier, inbox):
                report = original(self, frontier, inbox)
                if inbox is not None:
                    own = self._slots[:self._next].max()
                    parked = self._parked & ((1 << 32) - 1)
                    waited.extend(int(slot) for slot in inbox["slot"]
                                  if slot > own and slot in parked)
                return report

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_ShardCohortEngine, "advance_window", spy)
                cluster.run()
        else:
            cluster.run()
        latency = fabric.latency
        observed[engine] = (fabric.n_delivered, latency.count, latency.min,
                            latency.max, latency._mean, latency._m2,
                            [tuple(map(tuple, part)) for part in rows])
    assert observed["batched"][0] == 7 and observed["batched"][-1]
    assert waited == [6]
    assert observed["sharded"] == observed["batched"]
