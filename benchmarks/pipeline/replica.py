"""Traced replica of ``run_identification_experiment``.

The replica makes the same calls, in the same order, as
:func:`repro.core.experiment.run_identification_experiment` does for a
flat-kwargs flood config, and wraps each call in a span. The victim
analysis comes from the function's own helper, ``_victim_analysis_for``, so
both pick the same DPM table router.

    experiment
      core.from_config       Cluster.from_config
      marking.victim_setup   new_victim_analysis (+ build_signature_table for DPM)
      attack.launch          launch_ddos
      core.gate              attack-id array for the columnar gate
      engine.run             cluster.run()
        core.gate            ground-truth gate per delivery / flushed batch
        marking.decode       observe / observe_batch on the attack rows
      marking.identify       suspects() + score_identification

The victim consumer uses the real function's delivery path:
``attach_delivery_sink`` on the batched and sharded engines,
``add_delivery_handler`` on the exact engine. It also keeps the attack rows
it lets through, so the first-suspect time can be replayed afterwards,
outside any span. The returned :class:`Outcome` holds no reference into the
cluster, so the cluster is freed when the replica returns, as it is when
the real function returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.cluster import Cluster
from repro.core.config import ExperimentConfig
from repro.core.experiment import _victim_analysis_for
from repro.defense.metrics import score_identification
from repro.engine.watchdog import Watchdog
from repro.network.markstream import MarkBatch

from spans import Tracer

__all__ = ["Outcome", "run_replica", "first_suspect", "digest_row"]

#: MarkBatch columns kept for the replay, in constructor order
_ROW_COLUMNS = ("times", "sources", "dests", "words", "ttls", "hops", "ids")
_ROW_DTYPES = (np.float64, np.uint32, np.uint32, np.uint32, np.int16,
               np.int32, np.int64)


@dataclass
class Outcome:
    """What one replica experiment produced, plus its layer counters."""

    suspects: Tuple[int, ...]
    attackers: Tuple[int, ...]
    packets_delivered: int
    packets_dropped: int
    packets_analyzed: int
    precision: float
    f1: float
    injected: int
    rounds: int
    launched: int
    gate_rows: int
    decode_calls: int
    attack_rows: Dict[str, np.ndarray]

    def matches(self, result: Any) -> bool:
        """Same suspects and packet counts as an ``ExperimentResult``."""
        return (self.suspects == tuple(result.suspects)
                and self.packets_delivered == result.packets_delivered
                and self.packets_dropped == result.packets_dropped
                and self.packets_analyzed == result.packets_analyzed)


def run_replica(config: ExperimentConfig, tracer: Tracer,
                watchdog_s: float) -> Outcome:
    """Run ``config`` through the traced replica."""
    if config.attacks is not None or config.faults is not None:
        raise ValueError("the replica covers flat-kwargs floods only")
    begin, end = tracer.begin, tracer.end
    root = begin("experiment")
    with tracer.span("core.from_config"):
        cluster = Cluster.from_config(
            config, watchdog=Watchdog(wall_clock_limit=watchdog_s))
    victim = config.victim if config.victim is not None else cluster.default_victim()
    with tracer.span("marking.victim_setup"):
        analysis = _victim_analysis_for(cluster, victim)
    with tracer.span("attack.launch"):
        truth = cluster.launch_ddos(
            victim=victim,
            attackers=config.attackers,
            num_attackers=config.num_attackers,
            attack_rate_per_node=config.attack_rate_per_node,
            duration=config.duration,
            background_rate=config.background_rate,
        )

    counts = {"gate_rows": 0, "decode_calls": 0}
    kept: List[Tuple[np.ndarray, ...]] = []
    if cluster.engine in ("batched", "sharded"):
        with tracer.span("core.gate"):
            attack_ids = np.fromiter(truth.attack_packet_ids, dtype=np.int64,
                                     count=len(truth.attack_packet_ids))
            attack_ids.sort()

        def on_batch(batch: MarkBatch) -> None:
            gate = begin("core.gate")
            counts["gate_rows"] += len(batch)
            mask = np.isin(batch.ids, attack_ids)
            rows = batch.compress(mask) if mask.any() else None
            if rows is not None:
                kept.append(tuple(getattr(rows, c) for c in _ROW_COLUMNS))
            end(gate)
            if rows is not None:
                decode = begin("marking.decode")
                analysis.observe_batch(rows)
                end(decode)
                counts["decode_calls"] += 1

        cluster.fabric.attach_delivery_sink(victim, on_batch)
    else:
        is_attack = truth.is_attack_packet

        def on_delivery(event: Any) -> None:
            gate = begin("core.gate")
            counts["gate_rows"] += 1
            packet = event.packet
            hit = is_attack(packet)
            if hit:
                header = packet.header
                kept.append((event.time, header.src, header.dst,
                             header.identification, header.ttl, packet.hops,
                             packet.packet_id))
            end(gate)
            if hit:
                decode = begin("marking.decode")
                analysis.observe(packet)
                end(decode)
                counts["decode_calls"] += 1

        cluster.fabric.add_delivery_handler(victim, on_delivery)

    with tracer.span("engine.run"):
        cluster.run()
    with tracer.span("marking.identify"):
        suspects = analysis.suspects()
        score = score_identification(suspects, truth.attackers)
    end(root)

    stats = cluster.fabric.stats_summary()
    return Outcome(
        suspects=tuple(sorted(suspects)),
        attackers=tuple(int(a) for a in truth.attackers),
        packets_delivered=int(stats.get("delivered", 0)),
        packets_dropped=int(stats.get("dropped", 0)),
        packets_analyzed=analysis.packets_observed,
        precision=score.precision,
        f1=score.f1,
        injected=int(stats.get("injected", 0)),
        rounds=int(cluster.sim.events_executed),
        launched=len(truth.attack_packets) + len(truth.background_packets),
        gate_rows=counts["gate_rows"],
        decode_calls=counts["decode_calls"],
        attack_rows=_stack_rows(kept, batched=cluster.engine != "exact"),
    )


def _stack_rows(kept: List[Tuple], batched: bool) -> Dict[str, np.ndarray]:
    """Captured attack rows as MarkBatch-typed columns, in delivery order.

    ``kept`` holds one tuple of column arrays per flushed batch (batched
    engines) or one tuple of scalars per delivery (exact engine).
    """
    columns = list(zip(*kept)) or [()] * len(_ROW_COLUMNS)
    join = np.concatenate if batched else np.asarray
    return {name: (join(column).astype(dtype, copy=False) if column
                   else np.empty(0, dtype=dtype))
            for name, dtype, column in zip(_ROW_COLUMNS, _ROW_DTYPES, columns)}


def first_suspect(config: ExperimentConfig,
                  outcome: Outcome) -> Tuple[float, int]:
    """Simulated seconds from attack start until a true attacker is a
    suspect, and the number of attack packets observed by then.

    Replays the captured attack rows one at a time into a fresh victim
    analysis, built from the same config (so DPM gets the same signature
    table). The flood starts at simulated time 0. An experiment that never
    suspects a true attacker counts as the attack's ``duration`` and every
    attack packet it observed.
    """
    cluster = Cluster.from_config(config)
    victim = config.victim if config.victim is not None else cluster.default_victim()
    analysis = _victim_analysis_for(cluster, victim)
    attackers = frozenset(outcome.attackers)
    rows = outcome.attack_rows
    columns = [rows[name] for name in _ROW_COLUMNS]
    for i in range(columns[0].size):
        row = [column[i:i + 1] for column in columns]
        analysis.observe_batch(MarkBatch(victim, *row[:6], None, row[6]))
        if attackers & analysis.suspects():
            return float(row[0][0]), i + 1
    return float(config.duration), int(columns[0].size)


def digest_row(seed: int, outcome: Outcome, first_suspect_s: float) -> List[Any]:
    """The per-experiment simulated statistics the sim digest hashes."""
    return [int(seed), outcome.packets_delivered, outcome.packets_dropped,
            list(outcome.suspects), repr(first_suspect_s)]
