"""Declarative attack scenarios: registry-driven, serializable, seedable.

An :class:`AttackSpec` is a value that says *what* traffic an adversary (or
benign background population) generates; :meth:`AttackSpec.arm` translates
it into scheduled fabric traffic and returns the
:class:`repro.attack.ddos.AttackTrafficResult` ground truth needed to score
identification and response. Specs follow the same contracts the rest of
the experiment surface established (:mod:`repro.core.config`,
:mod:`repro.faults.campaign`):

* **Registry dispatch** — every spec kind is registered in
  :data:`repro.registry.ATTACKS`, so custom attack types plug in without
  touching this module, and unknown names surface as the structured
  :class:`repro.errors.UnknownNameError` with the sorted choices list.
* **Canonical serialization** — ``to_dict()``/``from_dict()``, inherited
  from :class:`repro.util.kindspec.KindSpec`, round-trip exactly, with
  validation errors raised as :class:`repro.errors.AttackError`, so an
  :class:`AttackCampaign` rides inside
  :class:`repro.core.config.ExperimentConfig` (key omitted when unset,
  keeping pre-existing cache keys stable) and participates in result
  caching.
* **Seeded per-spec RNG** — ``arm`` receives a dedicated
  ``numpy.random.Generator`` (by convention the simulator registry's
  ``"attack:<index>:<kind>"`` stream), so adding an attack to an
  experiment never perturbs the draw sequences of other components.

Built-in kinds (registration names in :data:`repro.registry.ATTACKS`):

``flood``
    The paper's first-generation spoofed flood (TFN/trinoo style), with
    optional uniform background noise — the bit-identical port of the
    legacy ``schedule_attack_flood`` path.
``syn-flood`` / ``ack-flood``
    The same flood shape carrying TCP SYN (half-open exhaustion) or ACK
    packets (camouflage in established traffic).
``pulsing``
    Shrew-style low-rate square wave: short on-bursts at a high rate
    separated by silence, keeping the long-run mean under rate-threshold
    detectors (see :class:`repro.defense.detection.DutyCycleDetector`).
``reflection``
    Reflection/amplification: attackers send small requests to reflector
    nodes with the *victim's* spoofed source address; each reflector
    answers the spoofed source with amplified replies. Marks accumulate on
    the **reply** path, so marking-based identification finds the
    reflectors, never the true sources — a decode regime the paper's plain
    floods cannot express.
``mix``
    Weighted composition of other specs (volumetric mixes).
``benign-poisson`` / ``benign-sessions``
    Benign traffic profiles: open-loop Poisson arrivals over the classic
    interconnect patterns, and closed request/reply sessions whose honest
    replies also carry marks — the realistic background identification
    accuracy must be measured against.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, ClassVar, Dict, List, Mapping,
                    Optional, Tuple, Type)

import numpy as np

from repro import registry
from repro.attack.ddos import AttackTrafficResult, join_scheduled
from repro.attack.flows import FlowSpec, schedule_flow
from repro.attack.spoofing import (FixedSpoofing, InClusterSpoofing,
                                   NoSpoofing, RandomSpoofing,
                                   SpoofingStrategy, VictimSpoofing)
from repro.attack.traffic import (BitReversalPattern, HotspotPattern,
                                  TornadoPattern, TrafficPattern,
                                  TransposePattern, UniformRandomPattern,
                                  schedule_background)
from repro.engine.rng import derive_child
from repro.errors import AttackError
from repro.network.packet import PacketKind
from repro.util.kindspec import KindSpec, parse_campaign, spec_from_entry

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.network.fabric import Fabric
    from repro.network.nic import DeliveredPacket

__all__ = [
    "AttackSpec",
    "FloodAttackSpec",
    "SynFloodAttackSpec",
    "AckFloodAttackSpec",
    "WormAttackSpec",
    "PulsingAttackSpec",
    "ReflectionAmplificationSpec",
    "VolumetricMixSpec",
    "PoissonBackgroundSpec",
    "RequestReplySessionSpec",
    "AttackCampaign",
    "SPOOFING_NAMES",
    "BENIGN_PATTERN_NAMES",
]

#: spoofing strategy names understood by the flood-family specs.
SPOOFING_NAMES = ("none", "random", "in-cluster", "victim", "fixed")

#: background pattern names understood by PoissonBackgroundSpec.
BENIGN_PATTERN_NAMES = ("uniform", "transpose", "bit-reversal", "tornado",
                        "hotspot")


# ----------------------------------------------------------------------
# Field validation helpers (mirroring repro.faults.campaign's idiom).
def _check_number(kind: str, name: str, value: Any, *, minimum: float,
                  strict: bool = False) -> float:
    """Validate a finite numeric field with a lower bound."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AttackError(f"{kind}.{name} must be a number, got {value!r}")
    value = float(value)
    if value != value or value == float("inf"):
        raise AttackError(f"{kind}.{name} must be finite, got {value}")
    if value < minimum or (strict and value == minimum):
        op = ">" if strict else ">="
        raise AttackError(f"{kind}.{name} must be {op} {minimum}, got {value}")
    return value


def _check_count(kind: str, name: str, value: Any, *, minimum: int = 1) -> int:
    """Validate an integer count field."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise AttackError(
            f"{kind}.{name} must be an int >= {minimum}, got {value!r}")
    return int(value)


def _check_nodes(kind: str, name: str, value: Any) -> Optional[Tuple[int, ...]]:
    """Validate an optional explicit node-index tuple."""
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not value or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0
            for n in value):
        raise AttackError(
            f"{kind}.{name} must be a non-empty list of node indexes, "
            f"got {value!r}")
    return tuple(int(n) for n in value)


def _check_choice(kind: str, name: str, value: Any,
                  choices: Tuple[str, ...]) -> str:
    """Validate a string field against a closed set of choices."""
    if value not in choices:
        raise AttackError(
            f"{kind}.{name} must be one of {sorted(choices)}, got {value!r}")
    return str(value)


def _check_spoofing(kind: str, name: Any, address: Any,
                    live: Optional[SpoofingStrategy] = None) -> None:
    """Validate a spoofing strategy name; ``fixed`` needs its address.

    A ``live`` strategy object replaces the named one, so it lifts the
    address requirement.
    """
    _check_choice(kind, "spoofing", name, SPOOFING_NAMES)
    if name == "fixed" and address is None and live is None:
        raise AttackError(f"{kind}.spoofing 'fixed' needs spoofing_address")


def _build_spoofing(name: str, *, victim: int,
                    address: Optional[int]) -> SpoofingStrategy:
    """Instantiate the named spoofing strategy for one armed scenario."""
    if name == "none":
        return NoSpoofing()
    if name == "random":
        return RandomSpoofing()
    if name == "in-cluster":
        return InClusterSpoofing()
    if name == "victim":
        return VictimSpoofing(victim)
    if name == "fixed":
        return FixedSpoofing(address)
    raise AttackError(f"unknown spoofing strategy {name!r}")  # pragma: no cover


def _pick_nodes(pool: List[int], count: int, rng: np.random.Generator,
                what: str) -> Tuple[int, ...]:
    """Draw ``count`` distinct nodes from ``pool`` using the spec stream."""
    if count > len(pool):
        raise AttackError(
            f"cannot place {count} {what} among {len(pool)} candidate nodes")
    chosen = rng.choice(len(pool), size=count, replace=False)
    return tuple(pool[int(i)] for i in chosen)


# ----------------------------------------------------------------------
class AttackSpec(KindSpec, ABC):
    """One declarative traffic scenario; concrete kinds are frozen dataclasses.

    Subclasses set the class attribute :attr:`kind` (their registry name in
    :data:`repro.registry.ATTACKS`), implement :meth:`arm` to schedule their
    traffic on a fabric and :meth:`scaled` so they can ride inside a
    :class:`VolumetricMixSpec`, and validate their fields in
    ``__post_init__``. The ``to_dict``/``from_dict`` pair, whose dict form
    carries the ``"kind"`` key :class:`AttackCampaign` dispatches on, is
    inherited from :class:`~repro.util.kindspec.KindSpec`.
    """

    error: ClassVar[Type[Exception]] = AttackError

    @abstractmethod
    def arm(self, fabric: "Fabric", sim: "Simulator", *, victim: int,
            rng: np.random.Generator) -> AttackTrafficResult:
        """Schedule this scenario's traffic; returns its ground truth.

        ``rng`` is the spec's dedicated seeded stream — every draw the
        scenario makes (placement, arrival times, spoofed addresses) comes
        from it, so arming a spec never perturbs other components' streams.
        ``sim`` is the fabric's simulator, passed explicitly so specs that
        schedule follow-up events need not reach through the fabric.
        """

    @abstractmethod
    def scaled(self, factor: float) -> "AttackSpec":
        """Copy of this spec with its traffic intensity scaled by ``factor``."""


# ----------------------------------------------------------------------
# Flood family: flood / syn-flood / ack-flood share placement + scheduling.

@dataclass(frozen=True)
class _FloodFamilySpec(AttackSpec):
    """Shared shape of the flood-family specs (not itself registered).

    ``attackers=None`` draws ``num_attackers`` placements from the spec's
    RNG stream at arm time; an explicit tuple pins them. ``spoofing`` is a
    strategy *name* (see :data:`SPOOFING_NAMES`) so the spec stays
    serializable; in-process callers holding a live
    :class:`~repro.attack.spoofing.SpoofingStrategy` can pass it via
    ``spoofing_strategy`` (never serialized, ignored by equality), which
    then stands in for ``spoofing`` and ``spoofing_address``.
    """

    num_attackers: int = 3
    attackers: Optional[Tuple[int, ...]] = None
    rate_per_attacker: float = 40.0
    duration: float = 5.0
    start: float = 0.0
    start_jitter: float = 0.0
    background_rate: float = 0.0
    spoofing: str = "in-cluster"
    spoofing_address: Optional[int] = None
    spoofing_strategy: Optional[SpoofingStrategy] = field(
        default=None, compare=False, repr=False)

    #: packet kind every flood packet carries (subclasses override).
    packet_kind: ClassVar[PacketKind] = PacketKind.DATA

    def __post_init__(self) -> None:
        _check_count(self.kind, "num_attackers", self.num_attackers)
        object.__setattr__(self, "attackers",
                           _check_nodes(self.kind, "attackers", self.attackers))
        _check_number(self.kind, "rate_per_attacker", self.rate_per_attacker,
                      minimum=0.0, strict=True)
        _check_number(self.kind, "duration", self.duration, minimum=0.0)
        _check_number(self.kind, "start", self.start, minimum=0.0)
        _check_number(self.kind, "start_jitter", self.start_jitter, minimum=0.0)
        _check_number(self.kind, "background_rate", self.background_rate,
                      minimum=0.0)
        _check_spoofing(self.kind, self.spoofing, self.spoofing_address,
                        self.spoofing_strategy)

    def arm(self, fabric: "Fabric", sim: "Simulator", *, victim: int,
            rng: np.random.Generator) -> AttackTrafficResult:
        """Place attackers (if not pinned) and schedule the spoofed flood.

        The draw order — placement, then per-attacker flow arrivals, then
        background — exactly replicates the legacy
        ``Cluster.launch_ddos`` + ``schedule_attack_flood`` sequence, which
        is what keeps the golden equivalence pins byte-stable.
        """
        from repro.attack.ddos import schedule_attack_flood

        attackers = self.attackers
        if attackers is None:
            pool = [n for n in fabric.topology.nodes() if n != victim]
            attackers = _pick_nodes(pool, self.num_attackers, rng, "attackers")
        spoofing = self.spoofing_strategy
        if spoofing is None:
            spoofing = _build_spoofing(self.spoofing, victim=victim,
                                       address=self.spoofing_address)
        result = schedule_attack_flood(
            fabric, victim=victim, attackers=attackers,
            attack_rate_per_node=self.rate_per_attacker,
            duration=self.duration, rng=rng, spoofing=spoofing,
            background_rate=self.background_rate,
            attack_kind=self.packet_kind, start=self.start,
            start_jitter=self.start_jitter,
        )
        return result

    def scaled(self, factor: float) -> "_FloodFamilySpec":
        """Copy with the per-attacker rate scaled by ``factor``."""
        return dataclasses.replace(
            self, rate_per_attacker=self.rate_per_attacker * factor)

@dataclass(frozen=True)
class FloodAttackSpec(_FloodFamilySpec):
    """The paper's spoofed DATA flood (TFN/trinoo-style, §1, §4.1)."""

    kind: ClassVar[str] = "flood"
    packet_kind: ClassVar[PacketKind] = PacketKind.DATA


@dataclass(frozen=True)
class SynFloodAttackSpec(_FloodFamilySpec):
    """TCP SYN half-open exhaustion flood (paper §1); see :mod:`repro.attack.synflood`."""

    kind: ClassVar[str] = "syn-flood"
    packet_kind: ClassVar[PacketKind] = PacketKind.SYN


@dataclass(frozen=True)
class AckFloodAttackSpec(_FloodFamilySpec):
    """ACK flood: spoofed bare ACKs that hide inside established-flow traffic."""

    kind: ClassVar[str] = "ack-flood"
    packet_kind: ClassVar[PacketKind] = PacketKind.ACK


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PulsingAttackSpec(AttackSpec):
    """Shrew-style low-rate pulsing: on/off square-wave bursts.

    Each attacker floods at ``rate_per_attacker`` only during the first
    ``duty_cycle`` fraction of every ``period``, then goes silent. The
    long-run mean rate is ``duty_cycle * rate_per_attacker`` — tuned below a
    rate detector's threshold, the bursts still saturate victim buffers
    while :class:`repro.defense.detection.RateThresholdDetector` (averaging
    over windows longer than a burst) never fires.
    """

    num_attackers: int = 3
    attackers: Optional[Tuple[int, ...]] = None
    rate_per_attacker: float = 120.0
    period: float = 1.0
    duty_cycle: float = 0.2
    duration: float = 5.0
    start: float = 0.0
    spoofing: str = "in-cluster"
    spoofing_address: Optional[int] = None
    kind: ClassVar[str] = "pulsing"

    def __post_init__(self) -> None:
        _check_count(self.kind, "num_attackers", self.num_attackers)
        object.__setattr__(self, "attackers",
                           _check_nodes(self.kind, "attackers", self.attackers))
        _check_number(self.kind, "rate_per_attacker", self.rate_per_attacker,
                      minimum=0.0, strict=True)
        _check_number(self.kind, "period", self.period, minimum=0.0,
                      strict=True)
        duty = _check_number(self.kind, "duty_cycle", self.duty_cycle,
                             minimum=0.0, strict=True)
        if duty > 1.0:
            raise AttackError(
                f"{self.kind}.duty_cycle must be in (0, 1], got {duty}")
        _check_number(self.kind, "duration", self.duration, minimum=0.0)
        _check_number(self.kind, "start", self.start, minimum=0.0)
        _check_spoofing(self.kind, self.spoofing, self.spoofing_address)

    @property
    def mean_rate_per_attacker(self) -> float:
        """Long-run average rate a threshold detector would see."""
        return self.rate_per_attacker * self.duty_cycle

    def arm(self, fabric: "Fabric", sim: "Simulator", *, victim: int,
            rng: np.random.Generator) -> AttackTrafficResult:
        """Place attackers and schedule one Poisson flow per on-burst."""
        attackers = self.attackers
        if attackers is None:
            pool = [n for n in fabric.topology.nodes() if n != victim]
            attackers = _pick_nodes(pool, self.num_attackers, rng, "attackers")
        if victim in attackers:
            raise AttackError("the victim cannot be one of the attackers")
        spoofing = _build_spoofing(self.spoofing, victim=victim,
                                   address=self.spoofing_address)
        end = self.start + self.duration
        burst_len = self.period * self.duty_cycle
        bursts = []
        for i, attacker in enumerate(attackers):
            burst_start = self.start
            while burst_start < end:
                window = min(burst_len, end - burst_start)
                if window > 0.0:
                    spec = FlowSpec(
                        source=attacker, destination=victim,
                        rate=self.rate_per_attacker, start=burst_start,
                        duration=window, spoofing=spoofing,
                        flow_id=3000 + i,
                    )
                    bursts.append(schedule_flow(fabric, spec, rng))
                burst_start += self.period
        result = AttackTrafficResult(victim=victim, attackers=tuple(attackers),
                                     attack_packets=join_scheduled(bursts))
        result.freeze_ids()
        return result

    def scaled(self, factor: float) -> "PulsingAttackSpec":
        """Copy with the burst rate scaled by ``factor`` (duty unchanged)."""
        return dataclasses.replace(
            self, rate_per_attacker=self.rate_per_attacker * factor)

# ----------------------------------------------------------------------
class _Reflector:
    """Per-reflector reply engine installed by :class:`ReflectionAmplificationSpec`.

    A bound-method delivery handler (not a closure) that answers each
    request delivered to its node with ``amplification`` larger replies sent
    to the request's (spoofed) source address — the victim.
    """

    __slots__ = ("fabric", "node", "request_ids", "amplification",
                 "payload_bytes", "flow_id", "result", "_seq")

    def __init__(self, fabric: "Fabric", node: int, request_ids: set,
                 amplification: int, payload_bytes: int, flow_id: int,
                 result: AttackTrafficResult):
        self.fabric = fabric
        self.node = node
        self.request_ids = request_ids
        self.amplification = amplification
        self.payload_bytes = payload_bytes
        self.flow_id = flow_id
        self.result = result
        self._seq = 0

    def on_delivery(self, event: "DeliveredPacket") -> None:
        """Reply to one delivered request with the amplified response burst."""
        packet = event.packet
        if packet.kind is not PacketKind.REQUEST:
            return
        if packet.packet_id not in self.request_ids:
            return
        addresses = self.fabric.addresses
        src = packet.header.src
        if not addresses.contains(src):  # spoof points outside the cluster
            return
        target = addresses.node_of(src)
        if target == self.node:
            return
        for _ in range(self.amplification):
            reply = self.fabric.make_packet(
                self.node, target, kind=PacketKind.REPLY,
                flow_id=self.flow_id, seq=self._seq,
                payload_bytes=self.payload_bytes,
            )
            self._seq += 1
            self.fabric.inject(reply)
            self.result.register_attack_packet(reply)


@dataclass(frozen=True)
class ReflectionAmplificationSpec(AttackSpec):
    """Reflection/amplification flood (DNS/NTP style) inside the cluster.

    Attackers send small ``REQUEST`` packets to reflector nodes, spoofing
    the victim's source address; every delivered request triggers
    ``amplification`` large ``REPLY`` packets from the reflector to the
    victim. The victim therefore only ever sees reply-path traffic: marks
    accumulate reflector→victim, so marking-based identification converges
    on the *reflector* set (``AttackTrafficResult.reflectors``) while the
    true sources (``attackers``) stay invisible — the ground truth carries
    both sets so benchmarks can score each.
    """

    num_attackers: int = 2
    attackers: Optional[Tuple[int, ...]] = None
    num_reflectors: int = 4
    reflectors: Optional[Tuple[int, ...]] = None
    request_rate: float = 20.0
    amplification: int = 4
    duration: float = 5.0
    start: float = 0.0
    request_payload_bytes: int = 64
    reply_payload_bytes: int = 512
    kind: ClassVar[str] = "reflection"

    def __post_init__(self) -> None:
        _check_count(self.kind, "num_attackers", self.num_attackers)
        _check_count(self.kind, "num_reflectors", self.num_reflectors)
        object.__setattr__(self, "attackers",
                           _check_nodes(self.kind, "attackers", self.attackers))
        object.__setattr__(self, "reflectors",
                           _check_nodes(self.kind, "reflectors",
                                        self.reflectors))
        _check_number(self.kind, "request_rate", self.request_rate,
                      minimum=0.0, strict=True)
        _check_count(self.kind, "amplification", self.amplification)
        _check_number(self.kind, "duration", self.duration, minimum=0.0)
        _check_number(self.kind, "start", self.start, minimum=0.0)
        _check_count(self.kind, "request_payload_bytes",
                     self.request_payload_bytes)
        _check_count(self.kind, "reply_payload_bytes", self.reply_payload_bytes)

    def arm(self, fabric: "Fabric", sim: "Simulator", *, victim: int,
            rng: np.random.Generator) -> AttackTrafficResult:
        """Place attackers/reflectors, schedule requests, install repliers."""
        nodes = list(fabric.topology.nodes())
        attackers = self.attackers
        if attackers is None:
            pool = [n for n in nodes if n != victim]
            attackers = _pick_nodes(pool, self.num_attackers, rng, "attackers")
        if victim in attackers:
            raise AttackError("the victim cannot be one of the attackers")
        reflectors = self.reflectors
        if reflectors is None:
            taken = set(attackers)
            pool = [n for n in nodes if n != victim and n not in taken]
            reflectors = _pick_nodes(pool, self.num_reflectors, rng,
                                     "reflectors")
        if victim in reflectors:
            raise AttackError("the victim cannot be one of the reflectors")
        overlap = set(attackers) & set(reflectors)
        if overlap:
            raise AttackError(
                f"nodes {sorted(overlap)} cannot be both attacker and reflector")

        result = AttackTrafficResult(victim=victim, attackers=tuple(attackers),
                                     reflectors=tuple(reflectors))
        spoofing = VictimSpoofing(victim)
        request_ids: set = set()
        reflector_list = list(reflectors)
        for i, attacker in enumerate(attackers):
            t = self.start + float(rng.exponential(1.0 / self.request_rate))
            seq = 0
            while t < self.start + self.duration:
                reflector = reflector_list[int(rng.integers(len(reflector_list)))]
                spoofed = spoofing.source_ip(attacker, fabric.addresses, rng)
                request = fabric.make_packet(
                    attacker, reflector, spoofed_src_ip=spoofed,
                    kind=PacketKind.REQUEST, flow_id=4000 + i, seq=seq,
                    payload_bytes=self.request_payload_bytes,
                )
                fabric.inject(request, delay=t)
                request_ids.add(request.packet_id)
                result.attack_packets.append(request)
                seq += 1
                t += float(rng.exponential(1.0 / self.request_rate))
        result.freeze_ids()

        for j, reflector in enumerate(reflector_list):
            engine = _Reflector(fabric, reflector, request_ids,
                                self.amplification, self.reply_payload_bytes,
                                4500 + j, result)
            fabric.add_delivery_handler(reflector, engine.on_delivery)
        return result

    def scaled(self, factor: float) -> "ReflectionAmplificationSpec":
        """Copy with the request rate scaled by ``factor``."""
        return dataclasses.replace(self,
                                   request_rate=self.request_rate * factor)

# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WormAttackSpec(AttackSpec):
    """Second-generation self-propagating worm (paper §1) as a scenario.

    Declarative wrapper over :class:`repro.attack.worm.WormOutbreak`: the
    seeds are the ground-truth true sources, every scan packet the epidemic
    emits is registered as attack traffic as it is generated, and the live
    outbreak object rides in ``result.extra["worm"]`` for curve inspection.
    """

    seeds: Tuple[int, ...] = (0,)
    scan_rate: float = 2.0
    infection_probability: float = 1.0
    incubation: float = 0.0
    recovery_rate: float = 0.0
    horizon: float = 25.0
    payload_bytes: int = 256
    kind: ClassVar[str] = "worm"

    def __post_init__(self) -> None:
        seeds = _check_nodes(self.kind, "seeds", self.seeds)
        if seeds is None:
            raise AttackError(f"{self.kind}.seeds must name at least one node")
        object.__setattr__(self, "seeds", seeds)
        _check_number(self.kind, "scan_rate", self.scan_rate, minimum=0.0,
                      strict=True)
        prob = _check_number(self.kind, "infection_probability",
                             self.infection_probability, minimum=0.0,
                             strict=True)
        if prob > 1.0:
            raise AttackError(
                f"{self.kind}.infection_probability must be in (0, 1], got {prob}")
        _check_number(self.kind, "incubation", self.incubation, minimum=0.0)
        _check_number(self.kind, "recovery_rate", self.recovery_rate,
                      minimum=0.0)
        _check_number(self.kind, "horizon", self.horizon, minimum=0.0,
                      strict=True)
        _check_count(self.kind, "payload_bytes", self.payload_bytes)

    def arm(self, fabric: "Fabric", sim: "Simulator", *, victim: int,
            rng: np.random.Generator) -> AttackTrafficResult:
        """Seed the outbreak; scans register as attack packets as they occur."""
        from repro.attack.worm import WormOutbreak

        result = AttackTrafficResult(victim=victim, attackers=tuple(self.seeds))
        outbreak = WormOutbreak(
            fabric, seeds=tuple(self.seeds), scan_rate=self.scan_rate,
            rng=rng, infection_probability=self.infection_probability,
            incubation=self.incubation, recovery_rate=self.recovery_rate,
            horizon=self.horizon, payload_bytes=self.payload_bytes,
            on_scan=result.register_attack_packet,
        )
        result.extra["worm"] = outbreak
        return result

    def scaled(self, factor: float) -> "WormAttackSpec":
        """Copy with the scan rate scaled by ``factor``."""
        return dataclasses.replace(self, scan_rate=self.scan_rate * factor)

# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PoissonBackgroundSpec(AttackSpec):
    """Benign open-loop Poisson background over a classic workload pattern.

    Not an attack: its packets land in
    ``AttackTrafficResult.background_packets`` and its ``attackers`` ground
    truth is empty. Riding in the same campaign as attack specs, it supplies
    the realistic noise floor identification accuracy is measured against.
    ``pattern="hotspot"`` uses the victim as the hot node — the benign shape
    closest to a flood signature.
    """

    pattern: str = "uniform"
    rate: float = 2.0
    duration: float = 5.0
    start: float = 0.0
    payload_bytes: int = 64
    hotspot_fraction: float = 0.2
    kind: ClassVar[str] = "benign-poisson"

    def __post_init__(self) -> None:
        _check_choice(self.kind, "pattern", self.pattern, BENIGN_PATTERN_NAMES)
        _check_number(self.kind, "rate", self.rate, minimum=0.0, strict=True)
        _check_number(self.kind, "duration", self.duration, minimum=0.0)
        _check_number(self.kind, "start", self.start, minimum=0.0)
        _check_count(self.kind, "payload_bytes", self.payload_bytes)
        frac = _check_number(self.kind, "hotspot_fraction",
                             self.hotspot_fraction, minimum=0.0)
        if frac > 1.0:
            raise AttackError(
                f"{self.kind}.hotspot_fraction must be in [0, 1], got {frac}")

    def _pattern(self, victim: int) -> TrafficPattern:
        """Instantiate the named workload pattern."""
        if self.pattern == "uniform":
            return UniformRandomPattern()
        if self.pattern == "transpose":
            return TransposePattern()
        if self.pattern == "bit-reversal":
            return BitReversalPattern()
        if self.pattern == "tornado":
            return TornadoPattern()
        return HotspotPattern(victim, self.hotspot_fraction)

    def arm(self, fabric: "Fabric", sim: "Simulator", *, victim: int,
            rng: np.random.Generator) -> AttackTrafficResult:
        """Schedule the background packets from every non-victim node."""
        result = AttackTrafficResult(victim=victim, attackers=())
        sources = [n for n in fabric.topology.nodes() if n != victim]
        result.background_packets = schedule_background(
            fabric, self._pattern(victim), rate=self.rate,
            duration=self.duration, rng=rng, sources=sources,
            start=self.start, payload_bytes=self.payload_bytes,
        )
        result.freeze_ids()
        return result

    def scaled(self, factor: float) -> "PoissonBackgroundSpec":
        """Copy with the per-node rate scaled by ``factor``."""
        return dataclasses.replace(self, rate=self.rate * factor)

# ----------------------------------------------------------------------
class _SessionServer:
    """Per-spec reply engine for :class:`RequestReplySessionSpec`.

    Answers every delivered session request with one honest reply to the
    requesting client, mimicking closed-loop RPC shapes; a bound method, not
    a closure, so the handler stays cheap and introspectable.
    """

    __slots__ = ("fabric", "request_ids", "payload_bytes", "flow_id",
                 "result", "_seq")

    def __init__(self, fabric: "Fabric", request_ids: set, payload_bytes: int,
                 flow_id: int, result: AttackTrafficResult):
        self.fabric = fabric
        self.request_ids = request_ids
        self.payload_bytes = payload_bytes
        self.flow_id = flow_id
        self.result = result
        self._seq = 0

    def on_delivery(self, event: "DeliveredPacket") -> None:
        """Send the reply for one delivered session request."""
        packet = event.packet
        if packet.kind is not PacketKind.REQUEST:
            return
        if packet.packet_id not in self.request_ids:
            return
        client = packet.true_source
        if client == event.node:
            return
        reply = self.fabric.make_packet(
            event.node, client, kind=PacketKind.REPLY,
            flow_id=self.flow_id, seq=self._seq,
            payload_bytes=self.payload_bytes,
        )
        self._seq += 1
        self.fabric.inject(reply)
        self.result.register_background_packet(reply)


@dataclass(frozen=True)
class RequestReplySessionSpec(AttackSpec):
    """Benign request/reply sessions: closed-loop RPC-shaped background.

    Each node opens sessions at ``session_rate`` (Poisson); a session picks
    a uniform server peer and sends ``requests_per_session`` small requests
    with Exp(``think_time``) spacing, and the server answers each delivered
    request with one larger honest reply. Replies traverse the network in
    the server→client direction, so legitimate reply-path marks exist too —
    exactly the confusion a reflection study needs in its background.
    """

    session_rate: float = 0.5
    requests_per_session: int = 4
    think_time: float = 0.05
    duration: float = 5.0
    start: float = 0.0
    request_payload_bytes: int = 64
    reply_payload_bytes: int = 256
    kind: ClassVar[str] = "benign-sessions"

    def __post_init__(self) -> None:
        _check_number(self.kind, "session_rate", self.session_rate,
                      minimum=0.0, strict=True)
        _check_count(self.kind, "requests_per_session",
                     self.requests_per_session)
        _check_number(self.kind, "think_time", self.think_time, minimum=0.0,
                      strict=True)
        _check_number(self.kind, "duration", self.duration, minimum=0.0)
        _check_number(self.kind, "start", self.start, minimum=0.0)
        _check_count(self.kind, "request_payload_bytes",
                     self.request_payload_bytes)
        _check_count(self.kind, "reply_payload_bytes", self.reply_payload_bytes)

    def arm(self, fabric: "Fabric", sim: "Simulator", *, victim: int,
            rng: np.random.Generator) -> AttackTrafficResult:
        """Schedule the sessions and install the reply engine on every node."""
        result = AttackTrafficResult(victim=victim, attackers=())
        num = fabric.topology.num_nodes
        request_ids: set = set()
        for client in fabric.topology.nodes():
            t = self.start + float(rng.exponential(1.0 / self.session_rate))
            seq = 0
            while t < self.start + self.duration:
                server = int(rng.integers(num - 1))
                if server >= client:
                    server += 1
                when = t
                for _ in range(self.requests_per_session):
                    request = fabric.make_packet(
                        client, server, kind=PacketKind.REQUEST,
                        flow_id=5000 + client, seq=seq,
                        payload_bytes=self.request_payload_bytes,
                    )
                    fabric.inject(request, delay=when)
                    request_ids.add(request.packet_id)
                    result.background_packets.append(request)
                    seq += 1
                    when += float(rng.exponential(self.think_time))
                t += float(rng.exponential(1.0 / self.session_rate))
        result.freeze_ids()
        engine = _SessionServer(fabric, request_ids,
                                self.reply_payload_bytes, 5999, result)
        for node in fabric.topology.nodes():
            fabric.add_delivery_handler(node, engine.on_delivery)
        return result

    def scaled(self, factor: float) -> "RequestReplySessionSpec":
        """Copy with the per-node session rate scaled by ``factor``."""
        return dataclasses.replace(self,
                                   session_rate=self.session_rate * factor)

# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VolumetricMixSpec(AttackSpec):
    """Weighted composition of attack/benign specs — volumetric mixes.

    Each component is armed in order with its intensity scaled by its
    weight (via the component's :meth:`AttackSpec.scaled`) and a child RNG
    stream derived deterministically from the mix's own stream; the merged
    :class:`AttackTrafficResult` is the exact union of the component
    results — the mix's packet count is always the component-sum (a
    property the hypothesis suite pins). Per-component packet counts ride
    in ``result.extra["mix_components"]``.
    """

    components: Tuple[AttackSpec, ...] = ()
    weights: Optional[Tuple[float, ...]] = None
    kind: ClassVar[str] = "mix"

    def __post_init__(self) -> None:
        if not isinstance(self.components, tuple):
            object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise AttackError(f"{self.kind} needs at least one component")
        for spec in self.components:
            if not isinstance(spec, AttackSpec):
                raise AttackError(
                    f"{self.kind} components must be AttackSpec instances, "
                    f"got {spec!r}")
            if isinstance(spec, VolumetricMixSpec):
                raise AttackError(f"{self.kind} components cannot nest mixes")
        if self.weights is not None:
            if not isinstance(self.weights, (list, tuple)):
                raise AttackError(
                    f"{self.kind}.weights must be a list of numbers, "
                    f"got {self.weights!r}")
            if len(self.weights) != len(self.components):
                raise AttackError(
                    f"{self.kind} has {len(self.components)} components but "
                    f"{len(self.weights)} weights")
            for w in self.weights:
                _check_number(self.kind, "weights[]", w, minimum=0.0,
                              strict=True)
            object.__setattr__(self, "weights",
                               tuple(float(w) for w in self.weights))

    def effective_weights(self) -> Tuple[float, ...]:
        """The per-component weights (all 1.0 when unset)."""
        if self.weights is None:
            return tuple(1.0 for _ in self.components)
        return self.weights

    def arm(self, fabric: "Fabric", sim: "Simulator", *, victim: int,
            rng: np.random.Generator) -> AttackTrafficResult:
        """Arm every weighted component on a derived stream and merge."""
        result = AttackTrafficResult(victim=victim, attackers=())
        counts: List[Dict[str, int]] = []
        for spec, weight in zip(self.components, self.effective_weights()):
            child = derive_child(rng)
            part = spec.scaled(weight).arm(fabric, sim, victim=victim,
                                           rng=child)
            counts.append({
                "kind": spec.kind,
                "attack_packets": len(part.attack_packets),
                "background_packets": len(part.background_packets),
            })
            result.absorb(part)
        result.extra["mix_components"] = counts
        return result

    def scaled(self, factor: float) -> "VolumetricMixSpec":
        """Copy with every component weight scaled by ``factor``."""
        weights = tuple(w * factor for w in self.effective_weights())
        return dataclasses.replace(self, weights=weights)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VolumetricMixSpec":
        """Validate and rebuild a mix; components dispatch through ATTACKS."""
        if isinstance(data, Mapping) and "components" in data:
            entries = data["components"]
            if not isinstance(entries, (list, tuple)) or not entries:
                raise AttackError(
                    f"{cls.kind}.components must be a non-empty list, "
                    f"got {entries!r}")
            data = {**data, "components": tuple(
                spec_from_entry(entry, registry.ATTACKS, AttackError)
                for entry in entries)}
        return super().from_dict(data)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttackCampaign:
    """An ordered, immutable collection of attack specs — one experiment's traffic.

    Pure data, mirroring :class:`repro.faults.campaign.FaultCampaign`: arm
    it against a running cluster with
    :meth:`repro.core.cluster.Cluster.launch_attacks` (each spec gets its
    own ``"attack:<index>:<kind>"`` RNG stream). Serialization round-trips
    through :meth:`to_dict`/:meth:`from_dict` with spec kinds dispatched
    through :data:`repro.registry.ATTACKS`, so campaigns ride inside
    :class:`repro.core.config.ExperimentConfig` and participate in result
    caching via its canonical JSON.
    """

    specs: Tuple[AttackSpec, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise AttackError("an attack campaign needs at least one spec")
        for spec in self.specs:
            if not isinstance(spec, AttackSpec):
                raise AttackError(
                    f"campaign entries must be AttackSpec instances, got {spec!r}")

    def __len__(self) -> int:
        return len(self.specs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {"specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AttackCampaign":
        """Validate and rebuild a campaign from :meth:`to_dict` output.

        Spec kinds resolve through :data:`repro.registry.ATTACKS`; an
        unknown kind raises :class:`repro.errors.UnknownNameError` carrying
        the sorted list of registered attack names.
        """
        return cls(specs=parse_campaign("AttackCampaign", data,
                                        registry.ATTACKS, AttackError))
