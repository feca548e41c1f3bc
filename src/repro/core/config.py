"""Declarative experiment configuration.

Specs are small frozen dataclasses with a ``build(...)`` method, so an
experiment is one literal value — easy to sweep, serialize into results,
and keep in benchmark code without imperative setup noise.

Two contracts layered on top of the plain dataclasses:

* **Registry dispatch** — ``build()`` resolves names through
  :mod:`repro.registry`, so a newly registered routing algorithm or
  marking scheme is immediately constructible from a config (and appears
  in the CLI ``choices`` lists) without touching this module.
* **Canonical serialization** — every spec and :class:`ExperimentConfig`
  round-trips through ``to_dict()``/``from_dict()`` with validation errors
  raised as :class:`ConfigurationError`. ``ExperimentConfig.canonical_json``
  is the *stable* form (sorted keys, no whitespace) that the result cache
  hashes; see :mod:`repro.runner.cache`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.network.fabric import Fabric

from repro import registry
from repro.attack.scenario import AttackCampaign
from repro.engine.contract import ENGINES
from repro.errors import ConfigurationError, UnknownNameError
from repro.faults.campaign import FaultCampaign
from repro.marking.base import MarkingScheme
from repro.network.fabric import FabricConfig
from repro.routing.base import Router
from repro.routing.selection import SelectionPolicy
from repro.topology.base import Topology

__all__ = ["TopologySpec", "RoutingSpec", "SelectionSpec", "MarkingSpec", "ExperimentConfig"]


def _require_keys(kind: str, data: Mapping[str, Any], required: Tuple[str, ...],
                  optional: Tuple[str, ...] = ()) -> None:
    """Shared ``from_dict`` shape check: mapping, no unknown/missing keys."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{kind} must be a mapping, got {type(data).__name__}")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ConfigurationError(f"{kind} has unknown keys {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigurationError(f"{kind} is missing keys {sorted(missing)}")


def _require_name(kind: str, reg: registry.Registry, name: Any) -> str:
    if not isinstance(name, str):
        raise ConfigurationError(f"{kind} name must be a string, got {name!r}")
    if name not in reg:
        raise UnknownNameError(kind, name, reg.names())
    return name


@dataclass(frozen=True)
class TopologySpec:
    """Topology selector: kind from the ``TOPOLOGY`` registry
    ('mesh', 'torus', 'hypercube')."""

    kind: str
    dims: Tuple[int, ...]

    def build(self) -> Topology:
        """Instantiate the selected topology."""
        return registry.TOPOLOGY.create(self.kind, tuple(self.dims))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {"kind": self.kind, "dims": [int(d) for d in self.dims]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        """Validate and rebuild a spec from :meth:`to_dict` output."""
        _require_keys("TopologySpec", data, ("kind", "dims"))
        kind = _require_name("topology", registry.TOPOLOGY, data["kind"])
        dims = data["dims"]
        if (not isinstance(dims, (list, tuple)) or not dims
                or not all(isinstance(d, int) and not isinstance(d, bool) and d > 0
                           for d in dims)):
            raise ConfigurationError(
                f"topology dims must be a non-empty list of positive ints, got {dims!r}"
            )
        return cls(kind=kind, dims=tuple(int(d) for d in dims))


@dataclass(frozen=True)
class RoutingSpec:
    """Router selector; names come from the ``ROUTING`` registry.

    Built-ins: 'xy' (2-D dimension-order moving along the row — column
    axis — first, the paper's convention), 'dor' (row-then-column),
    'west-first', 'north-last', 'negative-first', 'odd-even',
    'minimal-adaptive', 'fully-adaptive', 'valiant'.
    """

    name: str

    def build(self, rng: np.random.Generator) -> Router:
        """Instantiate the selected router."""
        return registry.ROUTING.create(self.name, rng)

    @property
    def is_adaptive(self) -> bool:
        """True when routes may vary packet to packet."""
        return self.name not in registry.DETERMINISTIC_ROUTING

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {"name": self.name}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RoutingSpec":
        """Validate and rebuild a spec from :meth:`to_dict` output."""
        _require_keys("RoutingSpec", data, ("name",))
        return cls(name=_require_name("routing", registry.ROUTING, data["name"]))


@dataclass(frozen=True)
class SelectionSpec:
    """Output-selection policy: 'first', 'random', or 'least-congested'."""

    name: str = "random"

    def build(self, rng: np.random.Generator,
              fabric: Optional["Fabric"] = None) -> SelectionPolicy:
        """Instantiate the selected policy (least-congested needs the fabric)."""
        return registry.SELECTION.create(self.name, rng, fabric)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {"name": self.name}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SelectionSpec":
        """Validate and rebuild a spec from :meth:`to_dict` output."""
        _require_keys("SelectionSpec", data, ("name",))
        return cls(name=_require_name("selection policy", registry.SELECTION,
                                      data["name"]))


@dataclass(frozen=True)
class MarkingSpec:
    """Marking-scheme selector; names come from the ``MARKING`` registry.

    Built-ins: 'ddpm', 'ddpm-auth', 'dpm', 'ppm-full', 'ppm-xor',
    'ppm-bitdiff', 'ppm-fragment', 'ppm-advanced', 'none'.
    ``probability`` applies to the PPM family.
    """

    name: str = "ddpm"
    probability: float = 0.05

    def build(self, rng: np.random.Generator,
              topology: Optional[Topology] = None) -> Optional[MarkingScheme]:
        """Instantiate the selected marking scheme (None for 'none')."""
        return registry.MARKING.create(self.name, rng, topology, self.probability)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {"name": self.name, "probability": float(self.probability)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MarkingSpec":
        """Validate and rebuild a spec from :meth:`to_dict` output."""
        _require_keys("MarkingSpec", data, ("name",), ("probability",))
        name = _require_name("marking scheme", registry.MARKING, data["name"])
        probability = data.get("probability", 0.05)
        if not isinstance(probability, (int, float)) or isinstance(probability, bool) \
                or not 0.0 <= float(probability) <= 1.0:
            raise ConfigurationError(
                f"marking probability must be in [0, 1], got {probability!r}"
            )
        return cls(name=name, probability=float(probability))


#: scalar ExperimentConfig fields serialized verbatim, with their types.
_SCALAR_FIELDS = {
    "seed": int,
    "num_attackers": int,
    "attack_rate_per_node": float,
    "background_rate": float,
    "duration": float,
    "misroute_budget": int,
    "trace_packets": bool,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One end-to-end identification experiment, fully specified by value."""

    topology: TopologySpec
    routing: RoutingSpec
    marking: MarkingSpec
    selection: SelectionSpec = SelectionSpec("random")
    seed: int = 0
    victim: Optional[int] = None          # default: last node
    num_attackers: int = 3
    attackers: Optional[Tuple[int, ...]] = None   # overrides num_attackers
    attack_rate_per_node: float = 40.0
    background_rate: float = 2.0
    duration: float = 5.0
    misroute_budget: int = 8
    trace_packets: bool = False
    faults: Optional[FaultCampaign] = None
    attacks: Optional[AttackCampaign] = None
    engine: str = "exact"
    shards: Optional[int] = None          # sharded engine only; None = default

    def fabric_config(self) -> FabricConfig:
        """FabricConfig derived from this experiment's knobs."""
        return FabricConfig(misroute_budget=self.misroute_budget,
                            trace_packets=self.trace_packets)

    # -- canonical serialization ----------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Nested JSON-ready form; inverse of :meth:`from_dict`.

        This is the *canonical* representation: the result cache hashes
        :meth:`canonical_json`, so any field that affects simulation
        output must appear here.
        """
        out: Dict[str, Any] = {
            "topology": self.topology.to_dict(),
            "routing": self.routing.to_dict(),
            "marking": self.marking.to_dict(),
            "selection": self.selection.to_dict(),
            "seed": int(self.seed),
            "victim": None if self.victim is None else int(self.victim),
            "num_attackers": int(self.num_attackers),
            "attackers": (None if self.attackers is None
                          else [int(a) for a in self.attackers]),
            "attack_rate_per_node": float(self.attack_rate_per_node),
            "background_rate": float(self.background_rate),
            "duration": float(self.duration),
            "misroute_budget": int(self.misroute_budget),
            "trace_packets": bool(self.trace_packets),
        }
        # Serialized only when set, so fault-free configs keep the exact
        # canonical JSON (and therefore cache keys) they had before fault
        # campaigns existed; same rule for attack campaigns.
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        if self.attacks is not None:
            out["attacks"] = self.attacks.to_dict()
        # Same omit-when-default rule for the engine: exact-mode configs keep
        # their pre-batched cache keys byte for byte. Likewise shards: an
        # unset count stays out of the key. A set count stays in it, since
        # shard counts agree only where draws cannot reach outcomes and
        # only statistically elsewhere.
        if self.engine != "exact":
            out["engine"] = self.engine
        if self.shards is not None:
            out["shards"] = int(self.shards)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """Validate and rebuild a config from :meth:`to_dict` output."""
        _require_keys(
            "ExperimentConfig", data,
            ("topology", "routing", "marking"),
            ("selection", "victim", "attackers", "faults", "attacks",
             "engine", "shards")
            + tuple(_SCALAR_FIELDS),
        )
        kwargs: Dict[str, Any] = {
            "topology": TopologySpec.from_dict(data["topology"]),
            "routing": RoutingSpec.from_dict(data["routing"]),
            "marking": MarkingSpec.from_dict(data["marking"]),
        }
        if "selection" in data:
            kwargs["selection"] = SelectionSpec.from_dict(data["selection"])
        for field, kind in _SCALAR_FIELDS.items():
            if field not in data:
                continue
            value = data[field]
            if kind is bool:
                if not isinstance(value, bool):
                    raise ConfigurationError(
                        f"{field} must be a bool, got {value!r}")
            elif kind is int:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ConfigurationError(
                        f"{field} must be an int, got {value!r}")
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{field} must be a number, got {value!r}")
            kwargs[field] = kind(value)
        victim = data.get("victim")
        if victim is not None:
            if not isinstance(victim, int) or isinstance(victim, bool):
                raise ConfigurationError(f"victim must be an int, got {victim!r}")
            kwargs["victim"] = victim
        attackers = data.get("attackers")
        if attackers is not None:
            if (not isinstance(attackers, (list, tuple))
                    or not all(isinstance(a, int) and not isinstance(a, bool)
                               for a in attackers)):
                raise ConfigurationError(
                    f"attackers must be a list of ints, got {attackers!r}")
            kwargs["attackers"] = tuple(int(a) for a in attackers)
        faults = data.get("faults")
        if faults is not None:
            kwargs["faults"] = FaultCampaign.from_dict(faults)
        attacks = data.get("attacks")
        if attacks is not None:
            kwargs["attacks"] = AttackCampaign.from_dict(attacks)
        engine = data.get("engine")
        if engine is not None:
            if engine not in ENGINES:
                raise ConfigurationError(f"engine must be one of {ENGINES}, got {engine!r}")
            kwargs["engine"] = engine
        shards = data.get("shards")
        if shards is not None:
            if not isinstance(shards, int) or isinstance(shards, bool) \
                    or shards < 1:
                raise ConfigurationError(
                    f"shards must be a positive int, got {shards!r}")
            kwargs["shards"] = shards
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace).

        Equal configs — however constructed — produce byte-identical
        strings; this is the form the result cache hashes.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Copy of this config with a different seed (replication helper)."""
        return dataclasses.replace(self, seed=int(seed))
