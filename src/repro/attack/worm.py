"""Second-generation DDoS: self-propagating worms inside the cluster (§1).

CodeRed/Nimda-style propagation scaled to a cluster: each infected node
scans random peers at a fixed rate; a scan packet delivered to a susceptible
node infects it after an incubation delay; total traffic grows with the
infected population — "its total traffic increases exponentially" — until
saturation. With ``recovery_rate`` set, nodes are cleaned (SIR) rather than
staying infected forever (SI).

:func:`analytic_si_curve` gives the deterministic logistic reference the
simulated outbreak is validated against in the tests.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.engine.stats import TimeSeries
from repro.errors import ConfigurationError
from repro.network.fabric import Fabric
from repro.network.nic import DeliveredPacket
from repro.network.packet import Packet, PacketKind

__all__ = ["WormOutbreak", "analytic_si_curve"]


def analytic_si_curve(num_nodes: int, initial_infected: int, contact_rate: float,
                      times: np.ndarray) -> np.ndarray:
    """Deterministic SI epidemic: logistic growth of the infected count.

    dI/dt = beta * I * (1 - I/N), with beta the per-node effective contact
    rate (scan rate times hit probability). Returns I(t) for each t.
    """
    if initial_infected < 1 or initial_infected > num_nodes:
        raise ConfigurationError(
            f"initial_infected must be in 1..{num_nodes}, got {initial_infected}"
        )
    times = np.asarray(times, dtype=float)
    n = float(num_nodes)
    i0 = float(initial_infected)
    # Logistic solution: I(t) = N / (1 + ((N - I0)/I0) exp(-beta t))
    return n / (1.0 + ((n - i0) / i0) * np.exp(-contact_rate * times))


class WormOutbreak:
    """A running epidemic on a fabric.

    Parameters
    ----------
    scan_rate:
        Scans per time unit emitted by each infected node (Poisson).
    infection_probability:
        Chance a scan that reaches a susceptible node infects it.
    incubation:
        Delay between receiving an infectious scan and starting to scan.
    recovery_rate:
        When > 0, each infected node is cleaned after Exp(1/recovery_rate)
        and becomes immune (SIR).
    horizon:
        Stop scheduling scans at this simulated time (bounds the run).
    on_scan:
        Optional observer called with each scan packet right after it is
        injected — purely observational (it must not touch the fabric), so
        ground-truth bookkeeping can track dynamically generated traffic
        without perturbing the epidemic's draw sequence.
    """

    def __init__(self, fabric: Fabric, *, seeds: Tuple[int, ...],
                 scan_rate: float, rng: np.random.Generator,
                 infection_probability: float = 1.0,
                 incubation: float = 0.0,
                 recovery_rate: float = 0.0,
                 horizon: float = 50.0,
                 payload_bytes: int = 256,
                 on_scan: Optional[Callable[[Packet], None]] = None):
        if not seeds:
            raise ConfigurationError("worm needs at least one seed node")
        if scan_rate <= 0:
            raise ConfigurationError(f"scan_rate must be > 0, got {scan_rate}")
        if not 0.0 < infection_probability <= 1.0:
            raise ConfigurationError(
                f"infection_probability must be in (0, 1], got {infection_probability}"
            )
        self.fabric = fabric
        self.rng = rng
        self.scan_rate = scan_rate
        self.infection_probability = infection_probability
        self.incubation = incubation
        self.recovery_rate = recovery_rate
        self.horizon = horizon
        self.payload_bytes = payload_bytes
        self.on_scan = on_scan

        self.infected: Set[int] = set()
        self.recovered: Set[int] = set()
        self.infection_times: Dict[int, float] = {}
        self.curve = TimeSeries()
        self.scans_sent = 0

        for node in fabric.topology.nodes():
            fabric.add_delivery_handler(node, self._on_delivery)
        for seed in seeds:
            self._infect(seed, at_time=0.0)

    # ------------------------------------------------------------------
    def _infect(self, node: int, at_time: float) -> None:
        if node in self.infected or node in self.recovered:
            return
        self.infected.add(node)
        self.infection_times[node] = at_time
        self.curve.add(max(at_time, self.fabric.sim.now), len(self.infected))
        self.fabric.sim.schedule_at(
            max(at_time + self.incubation, self.fabric.sim.now),
            self._schedule_next_scan, node, label="worm-incubate",
        )
        if self.recovery_rate > 0:
            delay = float(self.rng.exponential(1.0 / self.recovery_rate))
            self.fabric.sim.schedule_call(delay, self._recover, node,
                                          label="worm-recover")

    def _recover(self, node: int) -> None:
        if node in self.infected:
            self.infected.remove(node)
            self.recovered.add(node)

    def _schedule_next_scan(self, node: int) -> None:
        if node not in self.infected:
            return
        delay = float(self.rng.exponential(1.0 / self.scan_rate))
        when = self.fabric.sim.now + delay
        if when > self.horizon:
            return
        self.fabric.sim.schedule_call(delay, self._do_scan, node,
                                      label="worm-scan")

    def _do_scan(self, node: int) -> None:
        if node not in self.infected:
            return
        num = self.fabric.topology.num_nodes
        target = int(self.rng.integers(num - 1))
        if target >= node:
            target += 1
        packet = self.fabric.make_packet(node, target, kind=PacketKind.WORM,
                                         payload_bytes=self.payload_bytes)
        self.fabric.inject(packet)
        self.scans_sent += 1
        if self.on_scan is not None:
            self.on_scan(packet)
        self._schedule_next_scan(node)

    def _on_delivery(self, event: DeliveredPacket) -> None:
        if event.packet.kind is not PacketKind.WORM:
            return
        node = event.node
        if node in self.infected or node in self.recovered:
            return
        if self.rng.random() < self.infection_probability:
            self._infect(node, at_time=event.time)

    # ------------------------------------------------------------------
    @property
    def infected_count(self) -> int:
        """Currently infected nodes."""
        return len(self.infected)

    def effective_contact_rate(self) -> float:
        """beta for the analytic SI reference: scan_rate * hit probability."""
        return self.scan_rate * self.infection_probability
