"""Simulator-engineering benchmark: sharded multi-process engine throughput.

Companion to ``bench_fabric_batched.py``: runs the *same* 64x64-torus DDoS
flood once under ``engine='batched'`` and once under ``engine='sharded'``
(4 shards, fork workers), and records both packets/s in
``benchmarks/results/BENCH.json`` for ``benchmarks/gate.py``. The same-run
batched reference is there because the sharded mode's reason-to-exist
floor — >= 2x the batched packets/s at 4 shards (stored as 1.7x, scaled by
0.85 for noisy CI hosts) — is only meaningful on hardware with at least 4
cores; the gate enforces it core-count-aware (loud skip otherwise), so the
committed baseline stays machine-independent.

Both runs share one workload builder, so the delivered counts must agree
exactly — the benchmark doubles as a scale-level identity check.
"""

import os

import numpy as np

from repro.attack.traffic import UniformRandomPattern, schedule_background_bulk
from repro.core.cluster import Cluster
from repro.engine.watchdog import Watchdog
from repro.marking import DdpmScheme
from repro.routing import MinimalAdaptiveRouter
from repro.topology import Torus

#: the floor's shard count (the gate enforces 2x over batched only when the
#: measuring host has at least this many cores: ``min_cores`` in BENCH.json)
SHARDS = 4


def _run_flood(engine, shards=None):
    """The batched benchmark's torus64 flood, on the requested engine."""
    watchdog = Watchdog(wall_clock_limit=300.0)
    cluster = Cluster(Torus((64, 64)), MinimalAdaptiveRouter(),
                      marking=DdpmScheme(), seed=0, engine=engine,
                      shards=shards, watchdog=watchdog)
    victim = cluster.default_victim()
    cluster.launch_ddos(victim=victim, num_attackers=16,
                        attack_rate_per_node=100.0, duration=2.0)
    schedule_background_bulk(cluster.fabric, UniformRandomPattern(),
                             rate=2.0, duration=2.0,
                             rng=np.random.default_rng(1))
    cluster.run()
    fabric = cluster.fabric
    return (fabric.counters["delivered"], fabric.counters["dropped"],
            fabric.sim.events_executed)


def test_sharded_fabric_torus64_flood(benchmark, report, record_bench):
    """64x64 torus flood at 4 shards, with a same-run batched reference."""
    from time import perf_counter

    # Same-machine, same-workload batched reference for the speedup floor.
    start = perf_counter()
    batched = _run_flood("batched")
    batched_seconds = perf_counter() - start

    def run():
        return _run_flood("sharded", shards=SHARDS)

    delivered, dropped, windows = benchmark.pedantic(run, rounds=1,
                                                     iterations=1)
    mean_s = benchmark.stats.stats.mean
    # Scale-level identity check: same workload, same results.
    assert (delivered, dropped) == (batched[0], batched[1]), \
        "sharded results diverged from batched on the identical workload"
    cores = os.cpu_count() or 1
    batched_pps = batched[0] / batched_seconds
    sharded_pps = delivered / mean_s
    report("Engineering - sharded engine at scale (4096-node torus flood, "
           f"{SHARDS} shards, adaptive routing, DDPM marking)",
           f"{delivered} delivered / {dropped} dropped across {windows} "
           f"sync windows in {mean_s:.2f}s; {sharded_pps:,.0f} packets/s "
           f"vs batched {batched_pps:,.0f} packets/s same-run in "
           f"{batched_seconds:.2f}s ({cores} host core(s))")
    record_bench({"sharded/torus64_flood/packets_per_sec": sharded_pps,
                  "sharded/torus64_flood/batched_packets_per_sec":
                      batched_pps})
    assert delivered > 0
