"""Simulator-engineering benchmark: batched cohort-engine throughput.

Companion to ``bench_fabric_throughput.py`` (the exact per-packet engine's
regression guard): measures the ``engine='batched'`` cohort-advance path on
two workloads and records their packets/s in ``benchmarks/results/BENCH.json``
for ``benchmarks/gate.py``:

* ``matched`` — the *same* workload shape as the exact benchmark (8x8 torus,
  uniform Poisson background at rate 25 for 2 time units, adaptive routing,
  DDPM marking), so the two numbers are directly comparable. The gate
  enforces the batched mode's reason to exist here: >= 10x the exact
  engine's packets/s measured in the same run (stored as 8.5x, scaled by
  0.85 for noisy CI hosts; see ``gate.py``).
* ``torus64`` — a 64x64-torus DDoS flood plus background under a
  :class:`~repro.engine.watchdog.Watchdog`, the scale target the cohort
  engine was built for. Gated on completing at all (a per-packet engine
  takes minutes here); its packets/s is regression-checked against the
  committed baseline like every other metric.

Workload generation uses the columnar bulk path
(:func:`~repro.attack.traffic.schedule_background_bulk`) — the point of the
batched mode is that *no* stage is per-packet Python, injection included.
"""

import numpy as np

from repro.attack.traffic import (UniformRandomPattern, schedule_background,
                                  schedule_background_bulk)
from repro.core.cluster import Cluster
from repro.engine.watchdog import Watchdog
from repro.marking import DdpmScheme
from repro.network.colqueue import BatchedFabric
from repro.routing import (LeastCongestedPolicy, MinimalAdaptiveRouter)
from repro.topology import Torus


def _build_matched_fabric(seed=0):
    """The exact benchmark's workload, captured columnarly."""
    topology = Torus((8, 8))
    fabric = BatchedFabric(topology, MinimalAdaptiveRouter(),
                           marking=DdpmScheme())
    fabric.selection = LeastCongestedPolicy(fabric.congestion,
                                            np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    schedule_background_bulk(fabric, UniformRandomPattern(), rate=25.0,
                             duration=2.0, rng=rng)
    return fabric


def test_batched_fabric_throughput(benchmark, report, record_bench):
    def run():
        fabric = _build_matched_fabric()
        fabric.run()
        return fabric.counters["delivered"], fabric.sim.events_executed

    delivered, rounds = benchmark(run)
    mean_s = benchmark.stats.stats.mean
    report("Engineering - batched cohort engine throughput (64-node torus, "
           "adaptive routing, DDPM marking)",
           f"{delivered} packets delivered across {rounds} cohort rounds per "
           f"run in {mean_s:.4f}s mean; {delivered / mean_s:,.0f} packets/s "
           "(wall clock), gated against the exact engine's packets/s "
           "measured in the same run")
    record_bench({"batched/matched/packets_per_sec": delivered / mean_s})
    assert delivered > 0 and rounds > 0


def test_batched_fabric_torus64_flood(benchmark, report, record_bench):
    """64x64 adaptive-torus flood: the scale the cohort engine targets."""

    def run():
        watchdog = Watchdog(wall_clock_limit=300.0)
        cluster = Cluster(Torus((64, 64)), MinimalAdaptiveRouter(),
                          marking=DdpmScheme(), seed=0, engine="batched",
                          watchdog=watchdog)
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

    delivered, dropped, rounds = benchmark.pedantic(run, rounds=1,
                                                    iterations=1)
    mean_s = benchmark.stats.stats.mean
    report("Engineering - batched cohort engine at scale (4096-node torus "
           "flood, adaptive routing, DDPM marking)",
           f"{delivered} delivered / {dropped} dropped across {rounds} "
           f"cohort rounds in {mean_s:.2f}s; "
           f"{delivered / mean_s:,.0f} packets/s (wall clock)")
    record_bench({"batched/torus64/packets_per_sec": delivered / mean_s})
    assert delivered > 0


def test_bulk_background_matches_scalar_law(report):
    """Sanity: the bulk generator produces the scalar generator's workload.

    Not a timing benchmark — a statistical guard that the order-statistics
    construction in ``schedule_background_bulk`` is the same Poisson process
    ``schedule_background`` builds packet by packet (counts within a few
    standard deviations, times inside the window).
    """
    from repro.network.fabric import Fabric

    topology = Torus((8, 8))
    exact = Fabric(topology, MinimalAdaptiveRouter(), marking=DdpmScheme())
    packets = schedule_background(exact, UniformRandomPattern(), rate=25.0,
                                  duration=2.0,
                                  rng=np.random.default_rng(7))
    batched = BatchedFabric(topology, MinimalAdaptiveRouter(),
                            marking=DdpmScheme())
    ids = schedule_background_bulk(batched, UniformRandomPattern(),
                                   rate=25.0, duration=2.0,
                                   rng=np.random.default_rng(7))
    expected = 25.0 * 2.0 * topology.num_nodes
    sigma = expected ** 0.5
    assert abs(len(packets) - expected) < 6 * sigma
    assert abs(len(ids) - expected) < 6 * sigma
    columns = batched.log.columns()
    assert columns["times"].size == len(ids)
    assert float(columns["times"].min()) >= 0.0
    assert float(columns["times"].max()) < 2.0
    report("Engineering - bulk background generator law check",
           f"scalar {len(packets)} packets vs bulk {len(ids)} packets "
           f"(expected {expected:.0f} +/- {sigma:.0f})")
