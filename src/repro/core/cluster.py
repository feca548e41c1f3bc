"""The :class:`Cluster` façade: one object per simulated secure cluster.

Bundles the topology, routing, selection, marking, and fabric into a single
handle with the operations a user actually performs: launch attacks, attach
victim pipelines, run, and inspect results. Everything remains reachable for
advanced use (``cluster.fabric``, ``cluster.topology``, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.engine.profile import EventProfiler
    from repro.engine.watchdog import Watchdog

import numpy as np

from repro.attack.ddos import AttackTrafficResult
from repro.attack.scenario import (AttackCampaign, AttackSpec,
                                   FloodAttackSpec)
from repro.attack.spoofing import SpoofingStrategy
from repro.core.config import ExperimentConfig
from repro.defense.detection import Detector
from repro.defense.identification import IdentificationPipeline
from repro.engine.contract import ENGINES
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.marking.base import MarkingScheme
from repro.network.fabric import Fabric, FabricConfig
from repro.routing.base import Router
from repro.routing.selection import SelectionPolicy
from repro.topology.base import Topology

__all__ = ["Cluster"]


def _fabric_class(engine: str):
    """Resolve an engine name to its fabric class (lazy cohort import)."""
    if engine not in ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "exact":
        return Fabric
    from repro.network import colqueue

    return colqueue.ShardedFabric if engine == "sharded" else colqueue.BatchedFabric


class Cluster:
    """A running simulated cluster interconnect with marking-based defense."""

    def __init__(self, topology: Topology, router: Router, *,
                 marking: Optional[MarkingScheme] = None,
                 selection: Optional[SelectionPolicy] = None,
                 config: Optional[FabricConfig] = None,
                 seed: int = 0,
                 profile: Optional["EventProfiler"] = None,
                 watchdog: Optional["Watchdog"] = None,
                 engine: str = "exact",
                 shards: Optional[int] = None):
        self.seed = seed
        self.engine = engine
        self.sim = Simulator(seed=seed, profile=profile, watchdog=watchdog)
        self.rng = self.sim.rng.stream("cluster")
        # Monotonic sequence number for per-attack RNG streams: each armed
        # spec gets its own "attack:<seq>:<kind>" stream, so launching an
        # attack never perturbs the shared cluster stream (or other attacks).
        self._attack_seq = 0
        self.topology = topology
        self.router = router
        self.marking = marking
        fabric_kwargs: Dict[str, Any] = {}
        if engine == "sharded":
            fabric_kwargs["shards"] = shards
        elif shards is not None:
            raise ConfigurationError(
                f"shards={shards} only applies to engine='sharded', "
                f"not engine={engine!r}")
        self.fabric = _fabric_class(engine)(
            topology, router, marking=marking,
            selection=selection, config=config, sim=self.sim,
            **fabric_kwargs)
        if selection is None:
            # Default to congestion-aware adaptive selection, the realistic
            # regime for adaptive routers (paper §4.1: routes are unstable).
            from repro.routing.selection import LeastCongestedPolicy

            self.fabric.selection = LeastCongestedPolicy(
                self.fabric.congestion, self.sim.rng.stream("selection")
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: ExperimentConfig, *,
                    profile: Optional["EventProfiler"] = None,
                    watchdog: Optional["Watchdog"] = None) -> "Cluster":
        """Build a cluster from a declarative :class:`ExperimentConfig`.

        Every name in the config (topology kind, routing, marking,
        selection) is resolved through :mod:`repro.registry` by the specs'
        ``build`` methods, so a newly registered scheme is constructible
        here with no dispatch changes. ``profile`` optionally attaches an
        :class:`repro.engine.profile.EventProfiler` to the simulator;
        ``watchdog`` a :class:`repro.engine.watchdog.Watchdog` (whose
        hop ceiling and deadlock probe the fabric wires up).
        """
        topology = config.topology.build()
        seed_rng = np.random.default_rng(config.seed)
        router = config.routing.build(np.random.default_rng(seed_rng.integers(2**31)))
        marking = config.marking.build(
            np.random.default_rng(seed_rng.integers(2**31)), topology
        )
        cluster = cls(topology, router, marking=marking,
                      config=config.fabric_config(), seed=config.seed,
                      profile=profile, watchdog=watchdog,
                      engine=getattr(config, "engine", "exact"),
                      shards=getattr(config, "shards", None))
        if config.selection.name != "least-congested":
            cluster.fabric.selection = config.selection.build(
                cluster.sim.rng.stream("selection"), cluster.fabric
            )
        return cluster

    # ------------------------------------------------------------------
    def default_victim(self) -> int:
        """Convention: the last node (a corner in meshes)."""
        return self.topology.num_nodes - 1

    def launch_ddos(self, *, victim: Optional[int] = None,
                    attackers: Optional[Sequence[int]] = None,
                    num_attackers: int = 3,
                    attack_rate_per_node: float = 40.0,
                    duration: float = 5.0,
                    background_rate: float = 0.0,
                    spoofing: Optional[SpoofingStrategy] = None) -> AttackTrafficResult:
        """Schedule a spoofed flood (plus background) on this cluster.

        Since the scenario redesign this is a thin veneer over
        :class:`repro.attack.scenario.FloodAttackSpec`, armed on the shared
        cluster stream — deliberately, so every pre-existing seed (golden
        pins, benchmarks) reproduces bit-for-bit. New code should prefer
        :meth:`launch_attack` with an explicit spec, which gets a dedicated
        per-attack stream.
        """
        victim = self.default_victim() if victim is None else victim
        if attackers is None:
            pool = [n for n in self.topology.nodes() if n != victim]
            if num_attackers > len(pool):
                raise ConfigurationError(
                    f"cannot place {num_attackers} attackers among {len(pool)} nodes"
                )
        spec = FloodAttackSpec(
            num_attackers=num_attackers,
            attackers=None if attackers is None else tuple(attackers),
            rate_per_attacker=attack_rate_per_node, duration=duration,
            background_rate=background_rate, spoofing_strategy=spoofing,
        )
        return spec.arm(self.fabric, self.sim, victim=victim, rng=self.rng)

    def launch_attack(self, spec: AttackSpec, *,
                      victim: Optional[int] = None) -> AttackTrafficResult:
        """Arm one attack scenario on its own dedicated RNG stream.

        ``spec`` is an :class:`repro.attack.scenario.AttackSpec`; its draws
        come from the registry stream ``"attack:<seq>:<kind>"``, so arming
        an attack never perturbs the cluster stream or any other component
        (guarded by a determinism regression test).
        """
        victim = self.default_victim() if victim is None else victim
        rng = self.sim.rng.stream(f"attack:{self._attack_seq}:{spec.kind}")
        self._attack_seq += 1
        return spec.arm(self.fabric, self.sim, victim=victim, rng=rng)

    def launch_attacks(self, campaign: AttackCampaign, *,
                       victim: Optional[int] = None) -> AttackTrafficResult:
        """Arm every spec of a campaign; returns the merged ground truth.

        Specs arm in campaign order, each on its own dedicated
        ``"attack:<seq>:<kind>"`` stream; the per-spec results are merged
        (and kept individually in ``extra["scenario_results"]``) so one
        ``is_attack_packet`` gate covers the whole campaign.
        """
        victim = self.default_victim() if victim is None else victim
        merged = AttackTrafficResult(victim=victim, attackers=())
        parts: List[AttackTrafficResult] = []
        for spec in campaign.specs:
            parts.append(self.launch_attack(spec, victim=victim))
            merged.absorb(parts[-1])
        merged.extra["scenario_results"] = parts
        return merged

    def attach_pipeline(self, victim: int,
                        detector: Optional[Detector] = None) -> IdentificationPipeline:
        """Attach the detect-then-identify pipeline at the victim."""
        if self.marking is None:
            raise ConfigurationError("cluster has no marking scheme to identify with")
        analysis = self.marking.new_victim_analysis(victim)
        return IdentificationPipeline(self.fabric, victim, analysis, detector)

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (to ``until``, or until events drain)."""
        if until is None:
            return self.fabric.run()
        return self.fabric.run_until(until)

    def __repr__(self) -> str:  # pragma: no cover
        mark = self.marking.name if self.marking is not None else "none"
        return (f"Cluster({self.topology!r}, routing={self.router.name!r}, "
                f"marking={mark!r})")
