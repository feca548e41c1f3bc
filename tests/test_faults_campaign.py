"""FaultCampaign / spec value semantics: validation, round-trips, registry."""

import json

import pytest

from repro import registry
from repro.core.config import (
    ExperimentConfig,
    MarkingSpec,
    RoutingSpec,
    TopologySpec,
)
from repro.errors import ConfigurationError, FaultError
from repro.faults import (
    FaultCampaign,
    FaultSpec,
    LinkFlapSpec,
    NicStallSpec,
    PacketFaultSpec,
    RandomLinkFlapSpec,
    SwitchCrashSpec,
)

ALL_SPECS = (
    LinkFlapSpec(u=0, v=1, fail_at=1.0, restore_at=2.0),
    LinkFlapSpec(u=3, v=2, fail_at=0.5),
    SwitchCrashSpec(node=5, crash_at=1.0, restart_at=4.0),
    NicStallSpec(node=2, start_at=0.25, end_at=1.25),
    PacketFaultSpec(mode="drop", probability=0.1),
    PacketFaultSpec(mode="duplicate", probability=0.05, start_at=1.0,
                    end_at=2.0, node=7),
    PacketFaultSpec(mode="bitflip", probability=0.2),
    RandomLinkFlapSpec(probability=0.1, mean_downtime=0.5),
    RandomLinkFlapSpec(probability=0.3, start_at=0.5, end_at=2.0),
)

#: the keys each fault kind's dict form cannot omit.
REQUIRED_KEYS = {
    "link-flap": ("u", "v", "fail_at"),
    "switch-crash": ("node", "crash_at"),
    "nic-stall": ("node", "start_at", "end_at"),
    "packet": ("mode", "probability"),
    "random-link-flap": ("probability",),
}


class TestSpecValidation:
    def test_link_flap_rejects_self_link(self):
        with pytest.raises(FaultError):
            LinkFlapSpec(u=1, v=1, fail_at=0.0)

    def test_link_flap_rejects_restore_before_fail(self):
        with pytest.raises(FaultError):
            LinkFlapSpec(u=0, v=1, fail_at=2.0, restore_at=1.0)

    def test_negative_times_rejected(self):
        with pytest.raises(FaultError):
            LinkFlapSpec(u=0, v=1, fail_at=-1.0)
        with pytest.raises(FaultError):
            SwitchCrashSpec(node=0, crash_at=-0.5)

    def test_nic_stall_needs_positive_window(self):
        with pytest.raises(FaultError):
            NicStallSpec(node=0, start_at=1.0, end_at=1.0)

    def test_packet_fault_rejects_unknown_mode(self):
        with pytest.raises(FaultError):
            PacketFaultSpec(mode="scramble", probability=0.1)

    def test_probability_bounds(self):
        with pytest.raises(FaultError):
            PacketFaultSpec(mode="drop", probability=1.5)
        with pytest.raises(FaultError):
            RandomLinkFlapSpec(probability=-0.1)

    def test_random_flap_rejects_zero_downtime(self):
        with pytest.raises(FaultError):
            RandomLinkFlapSpec(probability=0.1, mean_downtime=0.0)

    def test_campaign_rejects_non_specs(self):
        with pytest.raises(FaultError):
            FaultCampaign(("not a spec",))


class TestRoundTrips:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_spec_roundtrip(self, spec):
        data = spec.to_dict()
        assert data["kind"] == spec.kind
        rebuilt = type(spec).from_dict(data)
        assert rebuilt == spec
        # the shared dict-form error paths hold for every kind
        with pytest.raises(FaultError, match="unknown keys"):
            type(spec).from_dict({**data, "severity": "high"})
        other = "nic-stall" if spec.kind != "nic-stall" else "link-flap"
        with pytest.raises(FaultError, match="cannot parse kind"):
            type(spec).from_dict({**data, "kind": other})
        for key in REQUIRED_KEYS[spec.kind]:
            partial = {k: v for k, v in data.items() if k != key}
            with pytest.raises(FaultError, match=f"is missing key '{key}'"):
                type(spec).from_dict(partial)

    def test_campaign_roundtrip_via_registry(self):
        campaign = FaultCampaign(ALL_SPECS)
        data = campaign.to_dict()
        # the dict form is pure JSON
        rebuilt = FaultCampaign.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == campaign
        assert len(rebuilt) == len(ALL_SPECS)

    def test_campaign_rejects_kindless_entry(self):
        with pytest.raises(FaultError):
            FaultCampaign.from_dict({"specs": [{"u": 0, "v": 1, "fail_at": 0.0}]})

    def test_campaign_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultCampaign.from_dict({"specs": [{"kind": "gremlin"}]})

    def test_spec_rejects_unknown_keys(self):
        with pytest.raises(FaultError):
            LinkFlapSpec.from_dict({"kind": "link-flap", "u": 0, "v": 1,
                                    "fail_at": 0.0, "severity": "high"})

    def test_spec_rejects_wrong_kind(self):
        with pytest.raises(FaultError):
            NicStallSpec.from_dict({"kind": "link-flap", "node": 0,
                                    "start_at": 0.0, "end_at": 1.0})


class TestRegistry:
    def test_every_kind_has_a_spec(self):
        assert {spec.kind for spec in ALL_SPECS} == set(registry.FAULTS.names())
        assert set(REQUIRED_KEYS) == set(registry.FAULTS.names())

    def test_all_builtin_kinds_registered(self):
        for kind in ("link-flap", "switch-crash", "nic-stall", "packet",
                     "random-link-flap"):
            assert kind in registry.FAULTS

    def test_custom_kind_plugs_in(self):
        from dataclasses import dataclass
        from typing import ClassVar

        @dataclass(frozen=True)
        class NoopSpec(FaultSpec):
            kind: ClassVar[str] = "noop"

            def arm(self, injector):
                pass

            def to_dict(self):
                return {"kind": "noop"}

            @classmethod
            def from_dict(cls, data):
                return cls()

        registry.FAULTS.register("noop", NoopSpec.from_dict)
        try:
            campaign = FaultCampaign.from_dict({"specs": [{"kind": "noop"}]})
            assert isinstance(campaign.specs[0], NoopSpec)
        finally:
            registry.FAULTS.unregister("noop")


class TestConfigIntegration:
    def _config(self, faults=None):
        return ExperimentConfig(
            topology=TopologySpec("mesh", (4, 4)),
            routing=RoutingSpec("fully-adaptive"),
            marking=MarkingSpec("ddpm"),
            faults=faults,
        )

    def test_config_roundtrip_with_campaign(self):
        campaign = FaultCampaign(ALL_SPECS)
        config = self._config(campaign)
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.faults == campaign

    def test_faultless_canonical_json_is_unchanged(self):
        # The "faults" key must be absent when no campaign is set, so
        # pre-existing cache keys (hashes of canonical_json) stay valid.
        config = self._config()
        assert "faults" not in config.to_dict()
        assert "faults" not in config.canonical_json()

    def test_campaign_changes_cache_key(self):
        plain = self._config()
        faulty = self._config(FaultCampaign((
            LinkFlapSpec(u=0, v=1, fail_at=1.0),
        )))
        assert plain.canonical_json() != faulty.canonical_json()
