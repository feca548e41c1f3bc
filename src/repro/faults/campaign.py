"""Declarative fault-campaign specifications.

A :class:`FaultCampaign` is a value: an ordered tuple of fault specs, each a
small frozen dataclass that says *what* goes wrong and *when*. Campaigns
follow the same contracts as :mod:`repro.core.config` — registry dispatch
(every spec kind is registered in :data:`repro.registry.FAULTS`, so custom
fault types plug in without touching this module) and canonical
``to_dict()``/``from_dict()`` round-tripping, inherited from
:class:`repro.util.kindspec.KindSpec`, with validation errors raised as
:class:`repro.errors.FaultError` — which makes a campaign cacheable,
sweepable, and serializable into results exactly like the rest of an
:class:`repro.core.config.ExperimentConfig`.

Built-in kinds:

``link-flap``
    Fail one named link at a simulated time, optionally restore it later.
``switch-crash``
    Sever every live link of one switch at a time, optionally restart it
    (restoring exactly the links the crash took down).
``nic-stall``
    A node's NIC drops everything it tries to inject during a window.
``packet``
    Stochastic per-forwarded-packet faults — ``drop``, ``duplicate``, or
    ``bitflip`` (one random bit of the 16-bit Marking Field) — at a given
    probability, optionally windowed in time or pinned to one switch.
``random-link-flap``
    Each physical link independently flaps with a given probability at a
    uniform random time, staying down for an exponential downtime (or for
    the rest of the run). This is the knob the fault-rate sweep turns.

Scheduling and randomness are the injector's job
(:class:`repro.faults.injector.FaultInjector`); specs only validate and
describe. Each spec's ``arm(injector)`` translates it into scheduled
events and hooks, so a new spec type is self-contained.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, ClassVar, Dict, Mapping, Optional,
                    Tuple, Type)

from repro import registry
from repro.errors import FaultError
from repro.util.kindspec import KindSpec, parse_campaign

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector

__all__ = [
    "FaultSpec",
    "LinkFlapSpec",
    "SwitchCrashSpec",
    "NicStallSpec",
    "PacketFaultSpec",
    "RandomLinkFlapSpec",
    "FaultCampaign",
]

#: Packet-fault modes understood by PacketFaultSpec.
PACKET_FAULT_MODES = ("drop", "duplicate", "bitflip")


def _check_time(kind: str, name: str, value: Any, *,
                optional: bool = False) -> Optional[float]:
    """Validate a non-negative finite time field; returns the float value."""
    if value is None:
        if optional:
            return None
        raise FaultError(f"{kind}.{name} is required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FaultError(f"{kind}.{name} must be a number, got {value!r}")
    value = float(value)
    if value < 0 or value != value or value == float("inf"):
        raise FaultError(f"{kind}.{name} must be finite and >= 0, got {value}")
    return value


def _check_node(kind: str, name: str, value: Any) -> int:
    """Validate a node-index field (non-negative int)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FaultError(f"{kind}.{name} must be a node index >= 0, got {value!r}")
    return int(value)


def _check_probability(kind: str, name: str, value: Any) -> float:
    """Validate a probability field in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0.0 <= float(value) <= 1.0:
        raise FaultError(f"{kind}.{name} must be in [0, 1], got {value!r}")
    return float(value)


class FaultSpec(KindSpec, ABC):
    """One declarative fault; concrete kinds are frozen dataclasses.

    Subclasses set the class attribute :attr:`kind` (their registry name),
    implement :meth:`arm` to translate themselves into injector events and
    hooks, and validate their fields in ``__post_init__``. The
    ``to_dict``/``from_dict`` pair, whose dict form carries the ``"kind"``
    key :class:`FaultCampaign` dispatches on through
    :data:`repro.registry.FAULTS`, is inherited from
    :class:`~repro.util.kindspec.KindSpec`.
    """

    error: ClassVar[Type[Exception]] = FaultError

    @abstractmethod
    def arm(self, injector: "FaultInjector") -> None:
        """Schedule this fault's events / install its hooks on ``injector``."""


@dataclass(frozen=True)
class LinkFlapSpec(FaultSpec):
    """Fail link ``(u, v)`` at ``fail_at``; restore at ``restore_at`` if set."""

    u: int
    v: int
    fail_at: float
    restore_at: Optional[float] = None
    kind: ClassVar[str] = "link-flap"

    def __post_init__(self) -> None:
        _check_node(self.kind, "u", self.u)
        _check_node(self.kind, "v", self.v)
        if self.u == self.v:
            raise FaultError(f"{self.kind}: self-link ({self.u}, {self.v})")
        fail_at = _check_time(self.kind, "fail_at", self.fail_at)
        restore_at = _check_time(self.kind, "restore_at", self.restore_at,
                                 optional=True)
        if restore_at is not None and restore_at <= fail_at:
            raise FaultError(
                f"{self.kind}: restore_at {restore_at} must be after fail_at {fail_at}"
            )

    def arm(self, injector: "FaultInjector") -> None:
        """Schedule the fail (and optional restore) on the injector."""
        injector.require_link(self.u, self.v)
        injector.schedule(self.fail_at, injector.fail_link, self.u, self.v)
        if self.restore_at is not None:
            injector.schedule(self.restore_at, injector.restore_link,
                              self.u, self.v)

@dataclass(frozen=True)
class SwitchCrashSpec(FaultSpec):
    """Crash switch ``node`` at ``crash_at``; optionally restart later.

    A crash severs every link of the switch that is live at crash time; a
    restart restores exactly those links (links failed by other faults stay
    down — ownership is tracked by the injector).
    """

    node: int
    crash_at: float
    restart_at: Optional[float] = None
    kind: ClassVar[str] = "switch-crash"

    def __post_init__(self) -> None:
        _check_node(self.kind, "node", self.node)
        crash_at = _check_time(self.kind, "crash_at", self.crash_at)
        restart_at = _check_time(self.kind, "restart_at", self.restart_at,
                                 optional=True)
        if restart_at is not None and restart_at <= crash_at:
            raise FaultError(
                f"{self.kind}: restart_at {restart_at} must be after crash_at {crash_at}"
            )

    def arm(self, injector: "FaultInjector") -> None:
        """Schedule the crash (and optional restart) on the injector."""
        injector.require_node(self.node)
        injector.schedule(self.crash_at, injector.crash_switch, self.node)
        if self.restart_at is not None:
            injector.schedule(self.restart_at, injector.restart_switch, self.node)

@dataclass(frozen=True)
class NicStallSpec(FaultSpec):
    """Node ``node``'s NIC drops every injection in ``[start_at, end_at)``."""

    node: int
    start_at: float
    end_at: float
    kind: ClassVar[str] = "nic-stall"

    def __post_init__(self) -> None:
        _check_node(self.kind, "node", self.node)
        start = _check_time(self.kind, "start_at", self.start_at)
        end = _check_time(self.kind, "end_at", self.end_at)
        if end <= start:
            raise FaultError(
                f"{self.kind}: end_at {end} must be after start_at {start}"
            )

    def arm(self, injector: "FaultInjector") -> None:
        """Register the stall window with the injector's injection gate."""
        injector.require_node(self.node)
        injector.add_nic_stall(self.node, self.start_at, self.end_at)

@dataclass(frozen=True)
class PacketFaultSpec(FaultSpec):
    """Stochastic per-forwarded-packet fault.

    Each packet a switch is about to forward suffers this fault with
    ``probability`` (drawn from the injector's seeded stream). Modes:

    * ``drop`` — the packet vanishes (counted, reason ``fault_injected``);
    * ``duplicate`` — an identical twin (same Marking Field, TTL, routing
      state, fresh packet id) is enqueued alongside the original;
    * ``bitflip`` — one random bit of the 16-bit Marking Field flips, the
      wire-corruption case the paper's Section 6 robustness discussion
      worries about.

    ``node`` pins the fault to one switch; ``start_at``/``end_at`` bound it
    in time (``end_at=None`` means until the end of the run).
    """

    mode: str
    probability: float
    start_at: float = 0.0
    end_at: Optional[float] = None
    node: Optional[int] = None
    kind: ClassVar[str] = "packet"

    def __post_init__(self) -> None:
        if self.mode not in PACKET_FAULT_MODES:
            raise FaultError(
                f"{self.kind}.mode must be one of {PACKET_FAULT_MODES}, "
                f"got {self.mode!r}"
            )
        _check_probability(self.kind, "probability", self.probability)
        start = _check_time(self.kind, "start_at", self.start_at)
        end = _check_time(self.kind, "end_at", self.end_at, optional=True)
        if end is not None and end <= start:
            raise FaultError(
                f"{self.kind}: end_at {end} must be after start_at {start}"
            )
        if self.node is not None:
            _check_node(self.kind, "node", self.node)

    def arm(self, injector: "FaultInjector") -> None:
        """Register this fault with the injector's packet hook."""
        if self.node is not None:
            injector.require_node(self.node)
        injector.add_packet_fault(self)

@dataclass(frozen=True)
class RandomLinkFlapSpec(FaultSpec):
    """Stochastic link flaps: the fault-rate sweep's knob.

    Every physical link independently flaps with ``probability``. A flapping
    link fails at a uniform random time in ``[start_at, end_at)`` (``end_at``
    defaults to the injector's horizon, i.e. the experiment duration) and
    stays down for an Exponential(``mean_downtime``) interval — or for the
    rest of the run when ``mean_downtime`` is ``None``. All draws come from
    the injector's seeded ``"faults"`` stream, so a campaign is reproducible
    per seed and statistically independent of traffic generation.
    """

    probability: float
    mean_downtime: Optional[float] = None
    start_at: float = 0.0
    end_at: Optional[float] = None
    kind: ClassVar[str] = "random-link-flap"

    def __post_init__(self) -> None:
        _check_probability(self.kind, "probability", self.probability)
        if self.mean_downtime is not None:
            down = _check_time(self.kind, "mean_downtime", self.mean_downtime)
            if down == 0:
                raise FaultError(f"{self.kind}.mean_downtime must be > 0")
        start = _check_time(self.kind, "start_at", self.start_at)
        end = _check_time(self.kind, "end_at", self.end_at, optional=True)
        if end is not None and end <= start:
            raise FaultError(
                f"{self.kind}: end_at {end} must be after start_at {start}"
            )

    def arm(self, injector: "FaultInjector") -> None:
        """Draw per-link flap times from the injector's stream and schedule."""
        end = self.end_at if self.end_at is not None else injector.horizon
        if end <= self.start_at:
            raise FaultError(
                f"{self.kind}: window [{self.start_at}, {end}) is empty — "
                "set end_at or run with a longer horizon"
            )
        rng = injector.rng
        window = end - self.start_at
        # sorted() pins the iteration order so the draw sequence is a pure
        # function of the seed, not of set-hash order.
        for u, v in sorted(injector.fabric.topology.links.all_links):
            if rng.random() >= self.probability:
                continue
            fail_at = self.start_at + rng.random() * window
            injector.schedule(fail_at, injector.fail_link, u, v)
            if self.mean_downtime is not None:
                downtime = float(rng.exponential(self.mean_downtime))
                injector.schedule(fail_at + downtime, injector.restore_link, u, v)

@dataclass(frozen=True)
class FaultCampaign:
    """An ordered, immutable collection of fault specs — one experiment's faults.

    The campaign is pure data: arm it against a running fabric with
    :class:`repro.faults.injector.FaultInjector`. Serialization round-trips
    through :meth:`to_dict`/:meth:`from_dict` with spec kinds dispatched
    through :data:`repro.registry.FAULTS`, so campaigns ride inside
    :class:`repro.core.config.ExperimentConfig` and participate in result
    caching via its canonical JSON.
    """

    specs: Tuple[FaultSpec, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise FaultError(
                    f"campaign entries must be FaultSpec instances, got {spec!r}"
                )

    def __len__(self) -> int:
        return len(self.specs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return {"specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultCampaign":
        """Validate and rebuild a campaign from :meth:`to_dict` output.

        Spec kinds resolve through :data:`repro.registry.FAULTS`, so any
        registered custom fault type deserializes transparently.
        """
        return cls(specs=parse_campaign("FaultCampaign", data,
                                        registry.FAULTS, FaultError))
