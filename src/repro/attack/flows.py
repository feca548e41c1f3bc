"""Flow specifications: a declarative unit of (possibly malicious) traffic."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

import numpy as np

from repro.attack.spoofing import NoSpoofing, SpoofingStrategy
from repro.errors import ConfigurationError
from repro.network.fabric import Fabric
from repro.network.packet import Packet, PacketKind

__all__ = ["FlowSpec", "Scheduled", "schedule_flow"]

#: what a traffic generator returns for scoring (``Fabric.inject_rows``):
#: the packets on the exact engine, their int64 id array on a cohort engine,
#: which builds none
Scheduled = Union[List[Packet], np.ndarray]


@dataclass
class FlowSpec:
    """One source-to-destination traffic stream.

    Attributes
    ----------
    source / destination:
        Node indexes.
    rate:
        Packets per time unit (Poisson arrivals).
    start / duration:
        Active window.
    kind:
        Packet type (DATA, SYN, ...).
    spoofing:
        Source-address strategy; default writes the honest address.
    payload_bytes / flow_id:
        Wire size and stream tag.
    """

    source: int
    destination: int
    rate: float
    start: float = 0.0
    duration: float = 1.0
    kind: PacketKind = PacketKind.DATA
    spoofing: SpoofingStrategy = field(default_factory=NoSpoofing)
    payload_bytes: int = 64
    flow_id: int = 0

    def __post_init__(self):
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be > 0, got {self.rate}")
        if self.duration < 0:
            raise ConfigurationError(f"duration must be >= 0, got {self.duration}")
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")


def schedule_flow(fabric: Fabric, spec: FlowSpec,
                  rng: np.random.Generator) -> Scheduled:
    """Schedule a flow's packets onto the fabric; returns them for scoring.

    Per packet the loop draws the (spoofed) source address, then the
    exponential gap to the next one. The rows go to the fabric in one
    ``inject_rows`` call, so the return value is what that returns: the
    packets on the exact engine, their int64 id array on a cohort engine.
    """
    scale = 1.0 / spec.rate
    end = spec.start + spec.duration
    source_ip, addresses = spec.spoofing.source_ip, fabric.addresses
    times: List[float] = []
    spoofed: List[int] = []
    t = spec.start + float(rng.exponential(scale))
    while t < end:
        spoofed.append(source_ip(spec.source, addresses, rng))
        times.append(t)
        t += float(rng.exponential(scale))
    count = len(times)
    return fabric.inject_rows(
        times, [spec.source] * count, [spec.destination] * count,
        src_ips=spoofed, kind=spec.kind, flow_id=spec.flow_id,
        payload_bytes=spec.payload_bytes)
