"""Simulator-engineering benchmark: fabric event throughput.

Not a paper artifact — a performance-regression guard for the simulator
itself (guides: measure before optimizing). Reports delivered packets and
executed events per wall-second on a standard uniform-random workload, so a
future change that quietly makes the event loop quadratic fails here first.

Besides the human-readable artifact, the run records ``exact/events_per_sec``
and ``exact/packets_per_sec`` in ``benchmarks/results/BENCH.json``;
``benchmarks/gate.py`` compares them against the committed baseline
``benchmarks/BENCH.json`` and fails CI on a large regression.
"""

import numpy as np

from repro.attack.traffic import UniformRandomPattern, schedule_background
from repro.marking import DdpmScheme
from repro.network import Fabric
from repro.routing import LeastCongestedPolicy, MinimalAdaptiveRouter
from repro.topology import Torus


def _build_loaded_fabric(seed=0):
    topology = Torus((8, 8))
    scheme = DdpmScheme()
    fabric = Fabric(topology, MinimalAdaptiveRouter(), marking=scheme)
    fabric.selection = LeastCongestedPolicy(fabric.congestion,
                                            np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    schedule_background(fabric, UniformRandomPattern(), rate=25.0,
                        duration=2.0, rng=rng)
    return fabric


def test_fabric_event_throughput(benchmark, report, record_bench):
    def run():
        fabric = _build_loaded_fabric()
        fabric.run()
        return fabric.counters["delivered"], fabric.sim.events_executed

    delivered, events = benchmark(run)
    mean_s = benchmark.stats.stats.mean
    report("Engineering - fabric throughput (64-node torus, adaptive routing, "
           "DDPM marking)",
           f"{delivered} packets delivered, {events} events per run in "
           f"{mean_s:.3f}s mean; {events / mean_s:,.0f} events/s, "
           f"{delivered / mean_s:,.0f} packets/s (wall clock)")
    record_bench({"exact/events_per_sec": events / mean_s,
                  "exact/packets_per_sec": delivered / mean_s})
    # Structural sanity only: the workload itself must have run. Throughput
    # regression detection lives in gate.py, which compares against the
    # committed baseline with a relative bound instead of a
    # machine-dependent absolute floor.
    assert delivered > 0 and events > delivered
