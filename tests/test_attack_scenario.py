"""Declarative attack scenarios: registry dispatch, round-trips, arming.

Covers the scenario-layer contracts: every registered spec kind
round-trips ``to_dict -> ATTACKS.create -> to_dict`` exactly, unknown
kinds raise the structured UnknownNameError with sorted choices, the
removed ``launch_attack(num_attackers=...)`` keyword form is refused,
arming through the new API never perturbs the shared cluster RNG
stream, and VolumetricMixSpec merges are exact
component-sum unions (pinned again property-style by hypothesis).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster, DdpmScheme, Torus, registry
from repro.attack.scenario import (
    AckFloodAttackSpec,
    AttackCampaign,
    AttackSpec,
    FloodAttackSpec,
    PoissonBackgroundSpec,
    PulsingAttackSpec,
    ReflectionAmplificationSpec,
    RequestReplySessionSpec,
    SynFloodAttackSpec,
    VolumetricMixSpec,
    WormAttackSpec,
)
from repro.attack.spoofing import FixedSpoofing
from repro.core.config import (
    ExperimentConfig,
    MarkingSpec,
    RoutingSpec,
    SelectionSpec,
    TopologySpec,
)
from repro.errors import AttackError, ConfigurationError, UnknownNameError
from repro.network.packet import PacketKind
from repro.routing import FullyAdaptiveRouter

#: one representative instance per registered kind, non-default fields set
#: so round-trips exercise real payloads, not just defaults.
REPRESENTATIVES = {
    "flood": FloodAttackSpec(num_attackers=2, rate_per_attacker=25.0,
                             duration=1.5, background_rate=1.0,
                             spoofing="random"),
    "syn-flood": SynFloodAttackSpec(attackers=(1, 5), duration=2.0),
    "ack-flood": AckFloodAttackSpec(num_attackers=4, start=0.5),
    "pulsing": PulsingAttackSpec(num_attackers=2, rate_per_attacker=90.0,
                                 period=0.5, duty_cycle=0.25, duration=2.0),
    "reflection": ReflectionAmplificationSpec(num_attackers=2,
                                              num_reflectors=3,
                                              amplification=5,
                                              request_rate=15.0),
    "worm": WormAttackSpec(seeds=(3, 7), scan_rate=4.0, horizon=10.0),
    "benign-poisson": PoissonBackgroundSpec(pattern="hotspot", rate=3.0,
                                            hotspot_fraction=0.4),
    "benign-sessions": RequestReplySessionSpec(session_rate=1.0,
                                               requests_per_session=2),
    "mix": VolumetricMixSpec(
        components=(FloodAttackSpec(num_attackers=2, duration=1.0),
                    PoissonBackgroundSpec(rate=2.0, duration=1.0)),
        weights=(2.0, 1.0)),
}


def small_cluster(seed=7, dims=(4, 4)):
    """A 4x4 adaptive torus with DDPM marking — the scenario test bed."""
    return Cluster(Torus(dims), FullyAdaptiveRouter(), marking=DdpmScheme(),
                   seed=seed)


class TestRegistry:
    def test_every_kind_has_a_representative(self):
        assert set(REPRESENTATIVES) == set(registry.ATTACKS.names())

    def test_names_are_sorted(self):
        names = list(registry.ATTACKS.names())
        assert names == sorted(names)

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    def test_round_trip_through_registry(self, kind):
        spec = REPRESENTATIVES[kind]
        data = spec.to_dict()
        assert data["kind"] == kind
        rebuilt = registry.ATTACKS.create(kind, data)
        assert isinstance(rebuilt, AttackSpec)
        assert rebuilt.to_dict() == data
        assert rebuilt == spec
        # the shared dict-form error paths hold for every kind
        with pytest.raises(AttackError, match="unknown keys"):
            type(spec).from_dict({**data, "warp_factor": 9})
        other = "flood" if kind != "flood" else "worm"
        with pytest.raises(AttackError, match="cannot parse kind"):
            type(spec).from_dict({**data, "kind": other})

    def test_unknown_kind_raises_structured_error(self):
        with pytest.raises(UnknownNameError) as err:
            AttackCampaign.from_dict({"specs": [{"kind": "teardrop"}]})
        assert err.value.kind == "attack"
        assert err.value.choices == tuple(sorted(registry.ATTACKS.names()))

    def test_missing_kind_key_rejected(self):
        with pytest.raises(AttackError, match="'kind'"):
            AttackCampaign.from_dict({"specs": [{"num_attackers": 2}]})


class TestValidation:
    def test_zero_rate_rejected(self):
        with pytest.raises(AttackError, match="rate_per_attacker"):
            FloodAttackSpec(rate_per_attacker=0.0)

    def test_unknown_spoofing_rejected(self):
        with pytest.raises(AttackError, match="spoofing"):
            FloodAttackSpec(spoofing="carrier-pigeon")

    @pytest.mark.parametrize("entry", [
        {"kind": "worm", "seeds": 5},
        {"kind": "flood", "attackers": 5},
        {"kind": "reflection", "reflectors": 5},
        {"kind": "mix", "components": [{"kind": "flood"}], "weights": 5},
    ], ids=lambda entry: entry["kind"])
    def test_malformed_field_raises_attack_error(self, entry):
        # a non-list where a list belongs is reported by field, never as a
        # raw TypeError from deserialization
        field_name = next(k for k in entry if k not in ("kind", "components"))
        data = ExperimentConfig(
            topology=TopologySpec("torus", (4, 4)),
            routing=RoutingSpec("fully-adaptive"),
            marking=MarkingSpec("ddpm")).to_dict()
        data["attacks"] = {"specs": [entry]}
        with pytest.raises(AttackError, match=f"{field_name} must be"):
            ExperimentConfig.from_dict(data)

    def test_fixed_spoofing_needs_address_when_built(self):
        with pytest.raises(AttackError, match="spoofing_address"):
            FloodAttackSpec.from_dict({"kind": "flood", "spoofing": "fixed"})
        with pytest.raises(AttackError, match="spoofing_address"):
            PulsingAttackSpec(spoofing="fixed")
        assert FloodAttackSpec(spoofing="fixed",
                               spoofing_address=3).spoofing_address == 3
        # a live strategy stands in for the named one and its address
        live = FloodAttackSpec(spoofing="fixed",
                               spoofing_strategy=FixedSpoofing(3))
        assert live.spoofing_address is None

    def test_unknown_key_rejected(self):
        with pytest.raises(AttackError, match="unknown keys"):
            FloodAttackSpec.from_dict({"kind": "flood", "warp_factor": 9})

    def test_duty_cycle_bounds(self):
        with pytest.raises(AttackError, match="duty_cycle"):
            PulsingAttackSpec(duty_cycle=1.5)
        with pytest.raises(AttackError, match="duty_cycle"):
            PulsingAttackSpec(duty_cycle=0.0)

    def test_worm_needs_seeds(self):
        with pytest.raises(AttackError, match="seeds"):
            WormAttackSpec(seeds=())

    def test_mix_rejects_nested_mix(self):
        inner = VolumetricMixSpec(components=(FloodAttackSpec(),))
        with pytest.raises(AttackError, match="nest"):
            VolumetricMixSpec(components=(inner,))

    def test_mix_weight_length_mismatch(self):
        with pytest.raises(AttackError, match="weights"):
            VolumetricMixSpec(components=(FloodAttackSpec(),),
                              weights=(1.0, 2.0))

    def test_empty_campaign_rejected(self):
        with pytest.raises(AttackError, match="at least one"):
            AttackCampaign(())

    def test_pulsing_mean_rate(self):
        spec = PulsingAttackSpec(rate_per_attacker=100.0, duty_cycle=0.2)
        assert spec.mean_rate_per_attacker == pytest.approx(20.0)


class TestLegacyShim:
    def test_spec_plus_legacy_kwargs_rejected(self):
        # The flat keyword form is gone; only launch_ddos keeps it.
        cluster = small_cluster()
        with pytest.raises(TypeError):
            cluster.launch_attack(FloodAttackSpec(), num_attackers=2)


class TestRngIsolation:
    def test_arming_leaves_cluster_stream_untouched(self):
        # The determinism regression for satellite 6: arming via the new
        # API draws from a dedicated "attack:<i>:<kind>" stream, so the
        # shared cluster stream advances identically with or without it.
        armed = small_cluster(seed=11)
        idle = small_cluster(seed=11)
        armed.launch_attack(PulsingAttackSpec(num_attackers=2, duration=1.0),
                            victim=armed.default_victim())
        assert armed.rng.random(8).tolist() == idle.rng.random(8).tolist()

    def test_placement_uses_spec_stream(self):
        # Same seed, two arming orders: the flood's placement must not
        # depend on whether another spec armed first (each gets its own
        # sequence-indexed stream, so only the *index* matters).
        a = small_cluster(seed=13)
        b = small_cluster(seed=13)
        va, vb = a.default_victim(), b.default_victim()
        spec = FloodAttackSpec(num_attackers=3, duration=0.5)
        first = a.launch_attack(spec, victim=va)
        b.launch_attack(PoissonBackgroundSpec(duration=0.5), victim=vb)
        again = b.launch_attack(spec, victim=vb)
        assert first.attackers != () and again.attackers != ()
        # stream index differs (0 vs 1), so placements are independent
        # draws; both exclude the victim either way.
        assert va not in first.attackers
        assert vb not in again.attackers


class TestArming:
    def test_reflection_reply_path(self):
        cluster = small_cluster(seed=3)
        victim = cluster.default_victim()
        truth = cluster.launch_attack(
            ReflectionAmplificationSpec(num_attackers=2, num_reflectors=3,
                                        request_rate=10.0, amplification=3,
                                        duration=1.0),
            victim=victim)
        assert set(truth.attackers).isdisjoint(truth.reflectors)
        assert victim not in truth.attackers
        assert victim not in truth.reflectors
        requests = len(truth.attack_packets)
        cluster.run()
        replies = [p for p in truth.attack_packets
                   if p.kind is PacketKind.REPLY]
        assert len(truth.attack_packets) > requests
        assert replies, "reflectors should have amplified delivered requests"
        assert all(p.true_source in truth.reflectors for p in replies)
        assert truth.is_attack_packet(replies[0])

    def test_pulsing_packets_inside_bursts(self):
        cluster = small_cluster(seed=5)
        victim = cluster.default_victim()
        spec = PulsingAttackSpec(num_attackers=2, rate_per_attacker=80.0,
                                 period=1.0, duty_cycle=0.25, duration=4.0)
        truth = cluster.launch_attack(spec, victim=victim)
        assert truth.attack_packets
        cluster.run()
        for packet in truth.attack_packets:
            phase = packet.injected_at % spec.period
            assert phase <= spec.period * spec.duty_cycle + 1e-9

    def test_benign_specs_have_no_attackers(self):
        cluster = small_cluster(seed=9)
        victim = cluster.default_victim()
        poisson = cluster.launch_attack(PoissonBackgroundSpec(duration=1.0),
                                        victim=victim)
        sessions = cluster.launch_attack(
            RequestReplySessionSpec(duration=1.0), victim=victim)
        assert poisson.attackers == () and sessions.attackers == ()
        assert poisson.background_packets and not poisson.attack_packets
        before = len(sessions.background_packets)
        cluster.run()
        # the session servers answered delivered requests with replies
        assert len(sessions.background_packets) > before
        assert any(p.kind is PacketKind.REPLY
                   for p in sessions.background_packets)

    def test_campaign_merges_ground_truth(self):
        cluster = small_cluster(seed=21)
        victim = cluster.default_victim()
        campaign = AttackCampaign((
            FloodAttackSpec(num_attackers=2, duration=1.0),
            PoissonBackgroundSpec(duration=1.0),
        ))
        merged = cluster.launch_attacks(campaign, victim=victim)
        parts = merged.extra["scenario_results"]
        assert len(parts) == 2
        assert merged.attackers == parts[0].attackers
        assert len(merged.attack_packets) == len(parts[0].attack_packets)
        assert len(merged.background_packets) == (
            len(parts[0].background_packets)
            + len(parts[1].background_packets))

    def test_mix_is_exact_component_union(self):
        cluster = small_cluster(seed=17)
        victim = cluster.default_victim()
        mix = VolumetricMixSpec(
            components=(FloodAttackSpec(num_attackers=2, duration=1.0),
                        PoissonBackgroundSpec(rate=2.0, duration=1.0)),
            weights=(1.5, 0.5))
        truth = cluster.launch_attack(mix, victim=victim)
        counts = truth.extra["mix_components"]
        assert [c["kind"] for c in counts] == ["flood", "benign-poisson"]
        assert len(truth.attack_packets) == sum(c["attack_packets"]
                                                for c in counts)
        assert len(truth.background_packets) == sum(c["background_packets"]
                                                    for c in counts)

    def test_mix_absorbs_dynamic_reflection_replies(self):
        # Packets a component registers *after* absorb (reflector replies)
        # must propagate into the merged result via the parent back-link.
        cluster = small_cluster(seed=29)
        victim = cluster.default_victim()
        mix = VolumetricMixSpec(components=(
            ReflectionAmplificationSpec(num_attackers=1, num_reflectors=2,
                                        request_rate=8.0, amplification=2,
                                        duration=1.0),))
        truth = cluster.launch_attack(mix, victim=victim)
        scheduled = len(truth.attack_packets)
        cluster.run()
        assert len(truth.attack_packets) > scheduled
        assert any(p.kind is PacketKind.REPLY for p in truth.attack_packets)


class TestMixProperty:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(weights=st.lists(st.floats(0.1, 3.0, allow_nan=False),
                            min_size=2, max_size=3),
           seed=st.integers(0, 2**12))
    def test_mix_packet_count_is_component_sum(self, weights, seed):
        components = (FloodAttackSpec(num_attackers=2, rate_per_attacker=20.0,
                                      duration=0.5),
                      PulsingAttackSpec(num_attackers=1, duration=0.5),
                      PoissonBackgroundSpec(rate=1.0, duration=0.5))
        mix = VolumetricMixSpec(components=components[:len(weights)],
                                weights=tuple(weights))
        cluster = small_cluster(seed=seed)
        truth = cluster.launch_attack(mix, victim=cluster.default_victim())
        counts = truth.extra["mix_components"]
        assert len(truth.attack_packets) == sum(c["attack_packets"]
                                                for c in counts)
        assert len(truth.background_packets) == sum(c["background_packets"]
                                                    for c in counts)


class TestConfigIntegration:
    BASE = dict(
        topology=TopologySpec("torus", (4, 4)),
        routing=RoutingSpec("fully-adaptive"),
        marking=MarkingSpec("ddpm"),
        selection=SelectionSpec("random"),
        seed=1,
    )

    def test_attacks_key_omitted_when_unset(self):
        config = ExperimentConfig(**self.BASE)
        assert "attacks" not in config.to_dict()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_cache_key_stable_without_attacks(self):
        # adding the field must not disturb pre-existing cache keys
        explicit = ExperimentConfig(**self.BASE, attacks=None)
        implicit = ExperimentConfig(**self.BASE)
        assert explicit.canonical_json() == implicit.canonical_json()

    def test_config_round_trips_with_campaign(self):
        campaign = AttackCampaign((
            ReflectionAmplificationSpec(num_attackers=2, num_reflectors=3),
            PoissonBackgroundSpec(pattern="transpose"),
        ))
        config = ExperimentConfig(**self.BASE, attacks=campaign)
        data = config.to_dict()
        assert data["attacks"] == campaign.to_dict()
        rebuilt = ExperimentConfig.from_dict(data)
        assert rebuilt == config
        assert rebuilt.canonical_json() == config.canonical_json()

    def test_config_unknown_attack_kind_raises(self):
        data = ExperimentConfig(**self.BASE).to_dict()
        data["attacks"] = {"specs": [{"kind": "smurf"}]}
        with pytest.raises(UnknownNameError) as err:
            ExperimentConfig.from_dict(data)
        assert "smurf" in str(err.value)
        assert err.value.choices == tuple(sorted(registry.ATTACKS.names()))
