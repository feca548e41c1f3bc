"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the simulator with a single ``except`` clause
while still being able to discriminate by subsystem.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "ReproError",
    "ConfigurationError",
    "UnknownNameError",
    "EngineUnsupported",
    "TopologyError",
    "RoutingError",
    "UnroutablePacketError",
    "LivelockError",
    "NetworkError",
    "BufferOverflowError",
    "MarkingError",
    "FieldOverflowError",
    "FieldLayoutError",
    "IdentificationError",
    "ReconstructionError",
    "AddressingError",
    "SpoofingError",
    "SimulationError",
    "WatchdogTimeout",
    "SanitizerError",
    "FaultError",
    "AttackError",
    "RunnerJobError",
    "DetectionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """An experiment, topology, or scheme was configured inconsistently."""


class UnknownNameError(ConfigurationError):
    """A name lookup in a registry (or registry-backed config) failed.

    Structured so callers — the CLI, sweep expansion, error reporters — can
    show the user what *would* have worked without parsing the message:

    Attributes
    ----------
    kind:
        What was being looked up (e.g. ``"routing"``, ``"marking scheme"``).
    name:
        The name that was requested.
    choices:
        The names that are actually registered, in registration order.
    """

    def __init__(self, kind: str, name: str, choices: Sequence[str] = ()):
        self.kind = kind
        self.name = name
        self.choices = tuple(choices)
        known = ", ".join(self.choices) if self.choices else "none registered"
        super().__init__(f"unknown {kind} {name!r} (known: {known})")


class EngineUnsupported(ConfigurationError):
    """A fabric engine refuses a feature it would otherwise run wrongly.

    Raised through the engine contract table
    (:mod:`repro.engine.contract`), so callers can switch engines without
    parsing the message:

    Attributes
    ----------
    engine:
        The engine that refused, one of ``repro.engine.contract.ENGINES``.
    feature:
        The contract row it refused (e.g. ``"stateful-router"``).
    fallback:
        The engine that runs the feature.
    """

    def __init__(self, engine: str, feature: str, fallback: str, message: str):
        super().__init__(engine, feature, fallback, message)
        self.engine, self.feature, self.fallback = engine, feature, fallback

    def __str__(self) -> str:
        return str(self.args[3])


class TopologyError(ReproError, ValueError):
    """Invalid topology parameters or an operation on a nonexistent node/link."""


class RoutingError(ReproError):
    """Base class for routing failures."""


class UnroutablePacketError(RoutingError):
    """The routing algorithm has no legal output port for a packet.

    Raised, for example, when XY routing meets a failed link it is not
    permitted to route around (paper §3, Figure 2(b)).
    """

    def __init__(self, message: str, *, current=None, destination=None):
        super().__init__(message)
        self.current = current
        self.destination = destination


class LivelockError(RoutingError):
    """A packet exceeded its misroute/hop budget without reaching its destination."""


class NetworkError(ReproError):
    """Base class for fabric-level failures (switch, channel, NIC)."""


class BufferOverflowError(NetworkError):
    """A component was asked to accept a packet with no buffer space or credit."""


class MarkingError(ReproError):
    """Base class for packet-marking failures."""


class FieldOverflowError(MarkingError):
    """A value does not fit the bit budget of its marking-field slot.

    DDPM layouts give each dimension a fixed signed sub-field (paper Table 3);
    non-minimal routes can push an accumulated distance component outside that
    range, which must surface as an explicit error rather than silent
    corruption (DESIGN.md decision #3).
    """


class FieldLayoutError(MarkingError, ValueError):
    """A marking-field layout does not fit the 16-bit identification field."""


class IdentificationError(MarkingError):
    """The victim could not decode a source from the received marking state."""


class ReconstructionError(IdentificationError):
    """PPM path reconstruction failed or was irreducibly ambiguous."""


class AddressingError(ReproError, KeyError):
    """Unknown IP address or node index in the cluster mapping table."""


class SpoofingError(ReproError, ValueError):
    """A spoofing strategy was asked to produce an impossible address."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event engine reached an inconsistent state."""


class WatchdogTimeout(SimulationError):
    """A watchdog detector fired and terminated the simulation.

    Carries the structured :class:`repro.engine.watchdog.WatchdogReport`
    in :attr:`report`, so callers (the hardened runner, tests) can tell
    deadlock from livelock from a wall-clock stall without parsing the
    message string.
    """

    def __init__(self, report):
        # args=(report,) keeps the exception picklable across process
        # boundaries (the parallel runner ships worker failures home).
        super().__init__(report)
        self.report = report

    def __str__(self) -> str:
        return f"watchdog fired: {self.report}"


class SanitizerError(SimulationError):
    """The runtime SimSanitizer observed a broken simulation invariant.

    Carries the structured :class:`repro.engine.sanitize.SanitizerReport`
    in :attr:`report` — which invariant broke (RNG stream cross-use,
    credit conservation, event-heap ordering), where, and at what simulated time — so tests and the
    hardened runner can discriminate without parsing the message.
    """

    def __init__(self, report):
        # args=(report,) keeps the exception picklable across process
        # boundaries, same as WatchdogTimeout.
        super().__init__(report)
        self.report = report

    def __str__(self) -> str:
        return f"sanitizer fired: {self.report}"


class FaultError(ReproError, ValueError):
    """A fault campaign was mis-specified or could not be armed."""


class AttackError(ReproError, ValueError):
    """An attack scenario/campaign was mis-specified or could not be armed."""


class RunnerJobError(ReproError, RuntimeError):
    """A runner job failed after exhausting isolation/retry handling."""


class DetectionError(ReproError):
    """A detector was queried before observing any traffic, or misconfigured."""
