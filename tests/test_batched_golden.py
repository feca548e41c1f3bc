"""Bit-identity pin for the batched cohort engine.

``tests/golden/batched.json`` holds one SHA-256 digest per scenario over
everything a batched run reports:

* the victim's :class:`~repro.network.markstream.DeliveryRing` rows in
  flush order (time, source, MF word, TTL, hops, packet id);
* the fabric's latency Welford moments (count, mean, M2, min, max) and
  hop histogram;
* per-NIC injected/delivered counts and the per-reason drop counters.

The scenarios cover the congested hotspot workload, 8x8 meshes and tori
under every batched routing/selection pair and the DDPM, DPM, full-index
PPM and fragment PPM schemes, each remaining scheme the engine admits
(advanced, XOR and bit-difference PPM, no marking) once on the 8x8 mesh,
DDPM on a 6-cube, a ``run_until`` segmented run, and a TTL-expiry run.
An engine refactor that claims bit-identical results must leave the file
untouched; regenerate it only for an intended behaviour change, and say
so.

Regenerate with::

    PYTHONPATH=src:. python -c "import tests.test_batched_golden as m; m.regenerate()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.config import (ExperimentConfig, MarkingSpec, RoutingSpec,
                               SelectionSpec, TopologySpec)
from repro.marking import DdpmScheme
from repro.network.fabric import FabricConfig
from repro.network.packet import allocate_packet_ids
from repro.routing import DimensionOrderRouter
from repro.routing.selection import FirstCandidatePolicy
from repro.topology import Mesh

GOLDEN_PATH = Path(__file__).parent / "golden" / "batched.json"

#: routing/selection pairs the batched engine vectorizes
ROUTINGS = (("dor", "first"), ("minimal-adaptive", "random"),
            ("minimal-adaptive", "least-congested"))
MARKINGS = ("ddpm", "dpm", "ppm-full", "ppm-fragment")


def _grid_config(kind: str, routing: str, selection: str,
                 marking: str, dims: Tuple[int, ...] = (8, 8),
                 ) -> ExperimentConfig:
    return ExperimentConfig(
        topology=TopologySpec(kind, dims),
        routing=RoutingSpec(routing),
        marking=MarkingSpec(marking, probability=0.2),
        selection=SelectionSpec(selection),
        seed=5, num_attackers=6, attack_rate_per_node=80.0,
        background_rate=3.0, duration=1.0, engine="batched",
    )


#: the congested corner hotspot of the pipeline benchmark
HOTSPOT = ExperimentConfig(
    topology=TopologySpec("mesh", (16, 16)),
    routing=RoutingSpec("xy"),
    marking=MarkingSpec("dpm"),
    selection=SelectionSpec("first"),
    attackers=(87, 109, 120, 121, 138, 150, 152, 186),
    num_attackers=8, attack_rate_per_node=400.0,
    background_rate=1.0, duration=5.0, seed=1, engine="batched",
)

SCENARIOS: Dict[str, Tuple[ExperimentConfig, Tuple[float, ...]]] = {
    "hotspot": (HOTSPOT, ()),
    **{f"{kind}8-{routing}-{selection}-{marking}":
       (_grid_config(kind, routing, selection, marking), ())
       for kind in ("mesh", "torus")
       for routing, selection in ROUTINGS
       for marking in MARKINGS},
    # The remaining schemes the engine admits, once each.
    **{f"mesh8-minimal-adaptive-random-{marking}":
       (_grid_config("mesh", "minimal-adaptive", "random", marking), ())
       for marking in ("ppm-advanced", "ppm-xor", "ppm-bitdiff", "none")},
    # DDPM's XOR offset algebra.
    "hypercube6-minimal-adaptive-random-ddpm": (
        _grid_config("hypercube", "minimal-adaptive", "random", "ddpm",
                     dims=(6,)), ()),
    # Cut into three run_until segments; must equal one uncut run.
    "segmented": (_grid_config("torus", "minimal-adaptive",
                               "least-congested", "ppm-full"), (0.3, 0.7)),
}


def _flood(config: ExperimentConfig) -> dict:
    return dict(attackers=config.attackers,
                num_attackers=config.num_attackers,
                attack_rate_per_node=config.attack_rate_per_node,
                duration=config.duration,
                background_rate=config.background_rate)


def _launch(cluster: Cluster, flood: dict) -> List[tuple]:
    victim = cluster.default_victim()
    rows: List[tuple] = []
    # Packet ids come from a process-wide counter; pin them relative to
    # the first id this launch draws, so test order cannot move them.
    first_id = allocate_packet_ids(0)

    def on_batch(batch) -> None:
        rows.append(tuple(np.array(column, copy=True) for column in (
            batch.times, batch.sources, batch.words, batch.ttls,
            batch.hops)) + (batch.ids - first_id,))

    cluster.fabric.attach_delivery_sink(victim, on_batch)
    cluster.launch_ddos(victim=victim, **flood)
    return rows


def _digest(cluster: Cluster, rows: List[tuple]) -> dict:
    fabric = cluster.fabric
    h = hashlib.sha256()
    # Concatenated, so ring flush boundaries (capacity, run_until cuts)
    # do not enter the digest.
    victim_rows = 0
    for parts in zip(*rows):
        column = np.concatenate(parts)
        victim_rows = column.size
        h.update(column.dtype.str.encode())
        h.update(column.tobytes())
    latency = fabric.latency
    h.update(repr((latency.count, float(latency._mean).hex(),
                   float(latency._m2).hex(), float(latency.min).hex(),
                   float(latency.max).hex())).encode())
    h.update(repr(sorted(fabric.hop_histogram.counts().items())).encode())
    h.update(repr([(nic.n_injected, nic.n_delivered)
                   for nic in fabric.nics]).encode())
    h.update(repr(sorted(fabric.counters.as_dict().items())).encode())
    return {
        "digest": h.hexdigest(),
        "delivered": int(fabric.counters["delivered"]),
        "dropped": int(fabric.counters["dropped"]),
        "victim_rows": int(victim_rows),
    }


def run_scenario(config: ExperimentConfig, cuts: Tuple[float, ...] = (),
                 ) -> dict:
    cluster = Cluster.from_config(config)
    rows = _launch(cluster, _flood(config))
    for cut in cuts:
        cluster.run(until=cut)
    cluster.run()
    return _digest(cluster, rows)


def run_ttl_scenario() -> dict:
    """8x8 mesh under XY routing with a TTL below most route lengths."""
    cluster = Cluster(Mesh((8, 8)), DimensionOrderRouter(),
                      marking=DdpmScheme(),
                      config=FabricConfig(default_ttl=6), seed=9,
                      engine="batched")
    cluster.fabric.selection = FirstCandidatePolicy()
    rows = _launch(cluster, dict(num_attackers=5, attack_rate_per_node=40.0,
                                 background_rate=3.0, duration=1.0))
    cluster.run()
    return _digest(cluster, rows)


def _all_scenarios() -> Dict[str, dict]:
    out = {name: run_scenario(config, cuts)
           for name, (config, cuts) in SCENARIOS.items()}
    out["ttl-expiry"] = run_ttl_scenario()
    return out


def regenerate() -> None:
    """Write tests/golden/batched.json from the current code."""
    golden = _all_scenarios()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} scenarios)")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batched_golden(golden, name):
    config, cuts = SCENARIOS[name]
    assert run_scenario(config, cuts) == golden[name]


def test_batched_golden_ttl_expiry(golden):
    fresh = run_ttl_scenario()
    assert fresh["dropped"] > 0, "TTL scenario no longer expires packets"
    assert fresh == golden["ttl-expiry"]


def test_segmented_pin_matches_uncut_run(golden):
    """The segmented pin is also the uncut run's: run_until is invisible."""
    config, cuts = SCENARIOS["segmented"]
    assert cuts
    assert run_scenario(config) == golden["segmented"]
