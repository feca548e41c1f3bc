"""Launch on the cohort engines: one column chunk per generator call.

``schedule_flow`` and ``schedule_background`` hand their rows to the
fabric's ``inject_rows``; a cohort fabric banks them as one
``InjectionLog`` chunk and builds no ``Packet``. This file checks that
capture against the per-packet path it replaced (``make_packet`` +
``BatchedFabric.inject``, still the path of the dynamic scenarios): the
same columns, the same ids relative to the first, and the same final
generator state, over every spoofing strategy and traffic pattern. It
also pins one attack campaign on ``engine="batched"``, so the ground-truth
merge over id arrays (``AttackTrafficResult.absorb``) reproduces the
result the per-packet capture gave.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attack.ddos import schedule_attack_flood
from repro.attack.scenario import (AttackCampaign, FloodAttackSpec,
                                   PoissonBackgroundSpec, PulsingAttackSpec,
                                   VolumetricMixSpec)
from repro.attack.spoofing import (FixedSpoofing, InClusterSpoofing,
                                   NoSpoofing, RandomSpoofing, VictimSpoofing)
from repro.attack.traffic import (BitReversalPattern, HotspotPattern,
                                  PermutationPattern, TornadoPattern,
                                  TransposePattern, UniformRandomPattern)
from repro.core.cluster import Cluster
from repro.core.config import (ExperimentConfig, MarkingSpec, RoutingSpec,
                               SelectionSpec, TopologySpec)
from repro.core.experiment import run_identification_experiment
from repro.network.colqueue import BatchedFabric
from repro.routing import DimensionOrderRouter
from repro.topology import Hypercube, Mesh

VICTIM = 5
ATTACKERS = (0, 9, 14)

SPOOFING = {
    "none": lambda: NoSpoofing(),
    "random": lambda: RandomSpoofing(),
    "in-cluster": lambda: InClusterSpoofing(),
    "fixed": lambda: FixedSpoofing(0x0B000001),
    "victim": lambda: VictimSpoofing(VICTIM),
}

#: pattern name -> (topology, pattern builder); bit-reversal needs a
#: power-of-two node count, so it runs on the 4-cube
PATTERNS = {
    "uniform": (lambda: Mesh((4, 4)), lambda topo: UniformRandomPattern()),
    "transpose": (lambda: Mesh((4, 4)), lambda topo: TransposePattern()),
    "bit-reversal": (lambda: Hypercube(4),
                     lambda topo: BitReversalPattern()),
    "tornado": (lambda: Mesh((4, 4)), lambda topo: TornadoPattern()),
    "hotspot": (lambda: Mesh((4, 4)),
                lambda topo: HotspotPattern(VICTIM, 0.3)),
    "permutation": (lambda: Mesh((4, 4)),
                    lambda topo: PermutationPattern(
                        topo, np.random.default_rng(11))),
}

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _reference_flood(fabric, *, rng, spoofing, pattern, rate, duration,
                     start, start_jitter, background_rate):
    """The per-packet launch: ``make_packet`` + ``inject`` per draw.

    The draw order of ``schedule_attack_flood`` before its generators
    banked columns: per attacker the start jitter, then per packet the
    spoofed source and the gap; then per background source, per packet,
    the destination and the gap.
    """
    attack_ids, background_ids = [], []
    for i, attacker in enumerate(ATTACKERS):
        jitter = (float(rng.uniform(0.0, start_jitter)) if start_jitter > 0
                  else 0.0)
        flow_start = start + jitter
        t = flow_start + float(rng.exponential(1.0 / rate))
        seq = 0
        while t < flow_start + duration:
            spoofed = spoofing.source_ip(attacker, fabric.addresses, rng)
            packet = fabric.make_packet(attacker, VICTIM,
                                        spoofed_src_ip=spoofed,
                                        flow_id=1000 + i, seq=seq)
            fabric.inject(packet, delay=t)
            attack_ids.append(packet.packet_id)
            seq += 1
            t += float(rng.exponential(1.0 / rate))
    if background_rate > 0.0:
        seq = 0
        for source in fabric.topology.nodes():
            if source == VICTIM:
                continue
            t = start + float(rng.exponential(1.0 / background_rate))
            while t < start + duration:
                dst = pattern.destination(source, fabric.topology, rng)
                packet = fabric.make_packet(source, dst, seq=seq)
                fabric.inject(packet, delay=t)
                background_ids.append(packet.packet_id)
                seq += 1
                t += float(rng.exponential(1.0 / background_rate))
    return attack_ids, background_ids


def _relative(columns):
    """The log's columns with ids taken relative to the first id."""
    columns = dict(columns)
    ids = columns["ids"]
    columns["ids"] = ids - ids.min() if ids.size else ids
    return columns


@SETTINGS
@given(spoofing=st.sampled_from(sorted(SPOOFING)),
       pattern=st.sampled_from(sorted(PATTERNS)),
       seed=st.integers(0, 2**32 - 1),
       start=st.floats(0.0, 2.0),
       start_jitter=st.sampled_from([0.0, 0.3, 1.5]),
       rate=st.floats(0.5, 40.0),
       duration=st.floats(0.0, 1.5),
       background_rate=st.sampled_from([0.0, 1.0, 6.0]))
def test_capture_matches_the_per_packet_path(spoofing, pattern, seed, start,
                                             start_jitter, rate, duration,
                                             background_rate):
    build_topology, build_pattern = PATTERNS[pattern]
    logs, states, ids = [], [], []
    for columnar in (True, False):
        topology = build_topology()
        fabric = BatchedFabric(topology, DimensionOrderRouter())
        rng = np.random.default_rng(seed)
        kwargs = dict(rng=rng, spoofing=SPOOFING[spoofing](),
                      start=start, start_jitter=start_jitter,
                      background_rate=background_rate)
        if columnar:
            truth = schedule_attack_flood(
                fabric, victim=VICTIM, attackers=ATTACKERS,
                attack_rate_per_node=rate, duration=duration,
                background_pattern=build_pattern(topology), **kwargs)
            attack, background = truth.attack_packets, truth.background_packets
            assert all(isinstance(part, np.ndarray) or part == []
                       for part in (attack, background))
        else:
            attack, background = _reference_flood(
                fabric, pattern=build_pattern(topology), rate=rate,
                duration=duration, **kwargs)
        logs.append(_relative(fabric.log.columns()))
        states.append(rng.bit_generator.state)
        first = min(list(attack) + list(background), default=0)
        ids.append((np.asarray(attack, dtype=np.int64) - first,
                    np.asarray(background, dtype=np.int64) - first))
    columnar, reference = logs
    assert columnar.keys() == reference.keys()
    for name in reference:
        assert columnar[name].dtype == reference[name].dtype, name
        np.testing.assert_array_equal(columnar[name], reference[name],
                                      err_msg=name)
    assert states[0] == states[1]
    for got, want in zip(ids[0], ids[1]):
        np.testing.assert_array_equal(got, want)


def test_mixed_capture_keeps_capture_order_at_equal_times():
    """Single rows and chunks captured at one time stay in capture order,
    the order the exact engine's event sequence numbers give them."""
    fabric = BatchedFabric(Mesh((4, 4)), DimensionOrderRouter())
    captured = []

    def single():
        packet = fabric.make_packet(0, VICTIM)
        fabric.inject(packet, delay=1.0)
        captured.append(packet.packet_id)

    single()
    captured.extend(fabric.inject_rows([1.0, 1.0], [1, 2], [VICTIM, VICTIM]))
    single()
    single()
    captured.extend(fabric.inject_rows([1.0], [3], [VICTIM]))
    single()
    assert fabric.log.columns()["ids"].tolist() == captured


# ----------------------------------------------------------------------
# One attack campaign on the batched engine, pinned
# ----------------------------------------------------------------------
CAMPAIGN = AttackCampaign((
    FloodAttackSpec(num_attackers=2, rate_per_attacker=30.0, duration=1.0,
                    background_rate=0.5, spoofing="random"),
    PulsingAttackSpec(num_attackers=2, rate_per_attacker=60.0, period=0.4,
                      duty_cycle=0.25, duration=1.0),
    PoissonBackgroundSpec(pattern="hotspot", rate=1.0, duration=1.0),
    VolumetricMixSpec(components=(
        FloodAttackSpec(num_attackers=1, rate_per_attacker=20.0,
                        duration=1.0, spoofing="in-cluster"),
        PoissonBackgroundSpec(pattern="uniform", rate=0.5, duration=1.0),
    ), weights=(1.5, 1.0)),
))

CAMPAIGN_CONFIG = ExperimentConfig(
    topology=TopologySpec("torus", (6, 6)),
    routing=RoutingSpec("minimal-adaptive"),
    marking=MarkingSpec("ddpm"),
    selection=SelectionSpec("least-congested"),
    seed=7, engine="batched", attacks=CAMPAIGN)


def test_batched_attack_campaign_is_pinned():
    """Flood, pulsing, benign-poisson and mix on ``engine="batched"``.

    The literal was recorded with the per-packet capture, before the
    generators banked columns; the campaign merges id arrays through
    ``absorb`` (campaign and mix) and pulsing's per-burst join.
    """
    result = run_identification_experiment(CAMPAIGN_CONFIG)
    assert result.victim == 35
    assert result.attackers == (25, 22, 15, 4, 33)
    assert result.suspects == (4, 15, 22, 25, 33)
    assert (result.score.precision, result.score.recall) == (1.0, 1.0)
    assert (result.score.true_positives, result.score.false_positives,
            result.score.false_negatives) == (5, 0, 0)
    assert result.packets_analyzed == 110
    assert (result.packets_delivered, result.packets_dropped) == (181, 0)
    assert result.mean_latency == pytest.approx(0.2532596685082873, rel=1e-12)
    assert result.mean_hops == pytest.approx(2.983425414364641, rel=1e-12)
    assert result.extra["attack"] == {
        "kinds": ["flood", "pulsing", "benign-poisson", "mix"],
        "true_sources": [4, 15, 22, 25, 33],
        "reflectors": [],
        "attack_packets": 110,
        "background_packets": 71,
    }


@pytest.mark.parametrize("engine", ["exact", "batched"])
def test_campaign_ground_truth_counts_agree_across_engines(engine):
    """``len`` of the packet fields counts packets on either engine."""
    config = dataclasses.replace(CAMPAIGN_CONFIG, engine=engine)
    cluster = Cluster.from_config(config)
    truth = cluster.launch_attacks(config.attacks)
    assert (len(truth.attack_packets), len(truth.background_packets)) == (
        110, 71)
    ids = np.array(sorted(truth.attack_packet_ids), dtype=np.int64)
    assert len(ids) == 110 and np.all(np.diff(ids) > 0)
    parts = truth.extra["scenario_results"]
    assert sum(len(part.attack_packets) for part in parts) == 110


def test_batched_campaign_without_attack_rows_gates_nothing():
    """A benign-only campaign leaves ``attack_packets`` an empty list and
    its frozen ids an empty set; no delivery reaches the analysis."""
    config = dataclasses.replace(CAMPAIGN_CONFIG, attacks=AttackCampaign((
        PoissonBackgroundSpec(pattern="uniform", rate=2.0, duration=1.0),)))
    truth = Cluster.from_config(config).launch_attacks(config.attacks)
    assert truth.attack_packets == []
    assert isinstance(truth.background_packets, np.ndarray)
    assert truth.attack_packet_ids == set()
    result = run_identification_experiment(config)
    assert result.packets_delivered > 0
    assert result.packets_analyzed == 0 and result.suspects == ()
