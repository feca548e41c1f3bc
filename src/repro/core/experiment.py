"""End-to-end identification experiments.

``run_identification_experiment`` is the workhorse behind the comparison
benchmarks (A3, A6): build a cluster from a config, flood a victim from
several spoofing attackers over background noise, feed the victim analysis,
and score the suspect set against ground truth.

For DPM, the victim analysis needs a signature table; it is built against
the *deterministic* variant of the configured routing (the best a real
deployment could do), so adaptive-routing configs measure exactly the
stable-route assumption breaking (paper §4.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

import numpy as np

from repro.core.cluster import Cluster
from repro.core.config import ExperimentConfig
from repro.core.results import ExperimentResult
from repro.defense.metrics import score_identification
from repro.engine.contract import refused_features
from repro.faults.injector import FaultInjector
from repro.marking.dpm import DpmScheme, build_signature_table
from repro.routing.dor import DimensionOrderRouter

if TYPE_CHECKING:
    from repro.engine.profile import EventProfiler
    from repro.engine.watchdog import Watchdog
    from repro.marking.base import VictimAnalysis

__all__ = ["run_identification_experiment", "sweep"]


def _victim_analysis_for(cluster: Cluster, victim: int) -> "VictimAnalysis":
    """Scheme-appropriate victim analysis (DPM gets its signature table)."""
    scheme = cluster.marking
    if isinstance(scheme, DpmScheme):
        # Use the deployment's own router when it is deterministic (the
        # table is then exact); under adaptive routing fall back to plain
        # dimension-order — the stable-route approximation a real victim
        # would have to assume, and precisely what the paper says breaks.
        table_router = (cluster.router if cluster.router.is_deterministic
                        else DimensionOrderRouter())
        table = build_signature_table(
            scheme, cluster.topology, table_router, victim,
            cluster.fabric.config.default_ttl,
        )
        return scheme.new_victim_analysis(victim, table)
    return scheme.new_victim_analysis(victim)


def run_identification_experiment(
        config: ExperimentConfig,
        profile: Optional["EventProfiler"] = None,
        watchdog: Optional["Watchdog"] = None) -> ExperimentResult:
    """Run one configured DDoS + identification scenario and score it.

    ``profile`` optionally attaches an
    :class:`repro.engine.profile.EventProfiler` to the simulation (the CLI's
    ``--profile`` plumbs through here); ``watchdog`` a
    :class:`repro.engine.watchdog.Watchdog` guarding against hangs. When the
    config carries a fault campaign it is armed before traffic starts, the
    run degrades gracefully through the fabric's fault paths, and the
    result's ``extra["faults"]`` reports what fired (per-fault counters,
    reroutes, and per-reason drop counts).
    """
    cluster = Cluster.from_config(config, profile=profile, watchdog=watchdog)
    victim = config.victim if config.victim is not None else cluster.default_victim()
    # A fault campaign on an engine that cannot run it is refused at the
    # run, through the engine contract (repro.engine.contract).
    injector: Optional[FaultInjector] = None
    if config.faults is not None:
        injector = FaultInjector(config.faults, cluster.fabric,
                                 horizon=config.duration)
        injector.arm()

    analysis = _victim_analysis_for(cluster, victim)

    if config.attacks is not None:
        # Declarative scenario campaign: each spec arms on its own
        # dedicated "attack:<i>:<kind>" stream.
        truth = cluster.launch_attacks(config.attacks, victim=victim)
    else:
        # Legacy flat-kwargs flood, armed on the shared cluster stream so
        # pre-campaign configs reproduce (and cache) bit-identically.
        truth = cluster.launch_ddos(
            victim=victim,
            attackers=config.attackers,
            num_attackers=config.num_attackers,
            attack_rate_per_node=config.attack_rate_per_node,
            duration=config.duration,
            background_rate=config.background_rate,
        )

    # The paper assumes detection exists (§6.1): feed exactly the attack
    # packets to the analysis, so the score isolates identification quality.
    if "per-packet-observers" in refused_features(cluster.engine):
        # An engine without per-packet observers feeds the victim through
        # its columnar delivery sink: the generators returned the attack
        # ids as arrays, frozen sorted at schedule time, so one np.isin per
        # flushed batch reproduces the per-packet ground-truth gate without
        # packet objects. The ids are a set only where no generator
        # returned any: no attack rows, or packets injected one at a time.
        attack_ids = truth.attack_packet_ids
        if not isinstance(attack_ids, np.ndarray):
            attack_ids = np.array(sorted(attack_ids), dtype=np.int64)

        def on_batch(batch: Any) -> None:
            mask = np.isin(batch.ids, attack_ids)
            if mask.any():
                analysis.observe_batch(batch.compress(mask))

        cluster.fabric.attach_delivery_sink(victim, on_batch)
    else:
        def on_delivery(event: Any) -> None:
            if truth.is_attack_packet(event.packet):
                analysis.observe(event.packet)

        cluster.fabric.add_delivery_handler(victim, on_delivery)
    cluster.run()

    suspects = analysis.suspects()
    score = score_identification(suspects, truth.attackers)
    stats = cluster.fabric.stats_summary()
    extra: Dict[str, Any] = {}
    if config.attacks is not None:
        extra["attack"] = {
            "kinds": [spec.kind for spec in config.attacks.specs],
            "true_sources": sorted(int(a) for a in truth.attackers),
            "reflectors": sorted(int(r) for r in truth.reflectors),
            "attack_packets": len(truth.attack_packets),
            "background_packets": len(truth.background_packets),
        }
    if injector is not None:
        fault_info = dict(injector.counters.as_dict())
        fault_info["rerouted"] = int(cluster.fabric.n_rerouted)
        fault_info.update(
            (key, int(value)) for key, value in stats.items()
            if key.startswith("dropped_")
        )
        extra["faults"] = fault_info
    return ExperimentResult(
        topology=f"{config.topology.kind}{config.topology.dims}",
        routing=config.routing.name,
        marking=config.marking.name,
        seed=config.seed,
        victim=victim,
        attackers=tuple(truth.attackers),
        score=score,
        suspects=tuple(sorted(suspects)),
        packets_analyzed=analysis.packets_observed,
        packets_delivered=int(stats.get("delivered", 0)),
        packets_dropped=int(stats.get("dropped", 0)),
        mean_latency=float(stats.get("mean_latency", float("nan"))),
        mean_hops=float(stats.get("mean_hops", float("nan"))),
        extra=extra,
    )


def sweep(configs: Iterable[ExperimentConfig]) -> List[ExperimentResult]:
    """Run a batch of configs; order preserved."""
    return [run_identification_experiment(config) for config in configs]
