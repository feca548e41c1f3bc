"""A7 (supporting §7) — "our approach can mark very large networks...
making it highly scalable."

Two scalability axes measured: identification stays exact and O(1)-per-
packet as the network grows to Table 3's maxima (128x128 mesh, 16-cube),
and victim-side decode throughput is flat in network size (DDPM decodes a
fixed 16-bit word; PPM reconstruction cost grows with the mark set).
Three floods run end to end through the runner: Table 3's 16x16x32 mesh
and 16-cube on the batched engine, then a 32x32 torus on the exact
engine. The paper-scale floods run first, so the process peak RSS they
report is their own rather than an earlier test's.
"""

import os
import resource
import time
import tracemalloc

import numpy as np

from repro.core.cluster import Cluster
from repro.marking import DdpmScheme
from repro.marking.ddpm_layout import DdpmLayout
from repro.network.ip import IPHeader
from repro.network.packet import Packet
from repro.routing import DimensionOrderRouter, MinimalAdaptiveRouter, RandomPolicy, walk_route
from repro.topology import Hypercube, Mesh, Torus
from repro.util.tables import TextTable


def _identify_many(topology, trials, seed):
    """Mark + identify ``trials`` random-pair packets; returns (exact, secs/id)."""
    scheme = DdpmScheme()
    scheme.attach(topology)
    rng = np.random.default_rng(seed)
    select = RandomPolicy(rng).binder()
    router = MinimalAdaptiveRouter()
    packets = []
    truths = []
    for _ in range(trials):
        src, dst = rng.integers(topology.num_nodes, size=2)
        if src == dst:
            continue
        path = walk_route(topology, router, int(src), int(dst), select)
        packet = Packet(IPHeader(1, 2), int(src), int(dst))
        scheme.on_inject(packet, int(src))
        for u, v in zip(path[:-1], path[1:]):
            scheme.on_hop(packet, u, v)
        packets.append((packet, int(dst)))
        truths.append(int(src))
    start = time.perf_counter()
    identified = [scheme.identify(p, d) for p, d in packets]
    elapsed = time.perf_counter() - start
    exact = sum(1 for got, want in zip(identified, truths) if got == want)
    return exact, len(packets), elapsed / max(len(packets), 1)


def _batched_flood(benchmark, runner, kind, dims, victim):
    """One Table 3 DDPM flood on the batched engine: minimal-adaptive
    routing, random selection, 6 attackers at rate 25 for 2 time units.
    Returns the result, its wall time and the process peak RSS (MB)
    before and after."""
    from repro.core import ExperimentConfig, MarkingSpec, RoutingSpec, SelectionSpec, TopologySpec

    n = int(np.prod(dims))
    rng = np.random.default_rng(1)
    attackers = tuple(int(a) for a in rng.choice(n, size=8, replace=False)
                      if a != victim)[:6]
    config = ExperimentConfig(
        topology=TopologySpec(kind, dims),
        routing=RoutingSpec("minimal-adaptive"),
        marking=MarkingSpec("ddpm"),
        selection=SelectionSpec("random"),
        seed=1, victim=victim, attackers=attackers,
        attack_rate_per_node=25.0, duration=2.0, background_rate=0.0,
        engine="batched",
    )
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    result = benchmark.pedantic(runner.run, args=(config,),
                                rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert result.score.exact
    assert frozenset(result.suspects) == frozenset(attackers)
    return config, (f"delivered {result.packets_delivered} spoofed packets; "
                    f"suspects == attackers: {result.score.exact} "
                    f"({len(result.attackers)} attackers); wall {elapsed:.2f} s; "
                    f"process peak RSS {rss_before:.0f} MB before, "
                    f"{rss_after:.0f} MB after ({os.cpu_count()}-core host)")


def test_claim_scalability_mesh_16x16x32_end_to_end(benchmark, report, runner):
    """Table 3's 3-D mesh row end to end: a 16x16x32 mesh (8192 nodes),
    whose 16-bit DDPM field splits 5+5+6. Its diameter, 61, is under the
    default TTL of 64, so every flood packet reaches the victim."""
    _, text = _batched_flood(benchmark, runner, "mesh", (16, 16, 32), victim=0)
    layout = DdpmLayout.for_topology(Mesh((16, 16, 32))).layout
    report("Claim (scalability) - 16x16x32 mesh end-to-end",
           f"{text}\nDDPM field: {layout}")


def test_claim_scalability_hypercube_2_16_end_to_end(benchmark, report, runner):
    """Table 3's hypercube row end to end: one DDPM flood on a 2^16-node
    hypercube through the batched engine. Its route table holds one row
    per (link group, sign class), 2^16 rows here, not the 2^32 of a table
    keyed by (node, sign class), and its channel targets are the
    topology's neighbour table itself."""
    config, text = _batched_flood(benchmark, runner, "hypercube", (16,), victim=2 ** 16 - 1)
    start = time.perf_counter()
    Hypercube(16).neighbor_table()
    build = time.perf_counter() - start
    tracemalloc.start()
    cluster = Cluster.from_config(config)
    retained = tracemalloc.get_traced_memory()[0] / 2 ** 20
    tracemalloc.stop()
    del cluster
    report("Claim (scalability) - 65536-node hypercube end-to-end",
           f"{text}\nHypercube(16) plus its neighbour table built in "
           f"{build:.3f} s; Cluster.from_config retains {retained:.1f} MB "
           f"(tracemalloc)")
    assert retained <= 40


def test_claim_scalability_identify_cost_flat(benchmark, report):
    def measure():
        rows = []
        for name, topo in (("mesh 8x8 (64)", Mesh((8, 8))),
                           ("mesh 32x32 (1024)", Mesh((32, 32))),
                           ("mesh 128x128 (16384)", Mesh((128, 128))),
                           ("torus 16x16 (256)", Torus((16, 16))),
                           ("hypercube 2^10 (1024)", Hypercube(10)),
                           ("hypercube 2^14 (16384)", Hypercube(14))):
            exact, total, per_id = _identify_many(topo, 30, seed=1)
            rows.append((name, total, exact, per_id * 1e6))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(["network (nodes)", "packets", "exact",
                       "victim decode us/packet"])
    for name, total, exact, us in rows:
        table.add_row([name, total, exact, f"{us:.1f}"])
    report("Claim (scalability) - DDPM identification cost vs network size",
           table.render())
    for name, total, exact, us in rows:
        assert exact == total, name
    # Decode cost varies by dimensionality, not node count: the largest
    # network is no more than ~4x the smallest (same-family comparison is
    # tighter, asserted below).
    by_name = {name: us for name, _, _, us in rows}
    assert by_name["mesh 128x128 (16384)"] < 4 * by_name["mesh 8x8 (64)"]


def test_claim_scalability_full_fabric_1024_nodes(benchmark, report, runner):
    """End-to-end DDoS on a 1024-node torus through the event-driven fabric,
    expressed as one declarative config on the experiment runner."""
    from repro.core import ExperimentConfig, MarkingSpec, RoutingSpec, SelectionSpec, TopologySpec

    topology = Torus((32, 32))
    rng = np.random.default_rng(1)
    victim = topology.index((16, 16))
    attackers = tuple(int(a) for a in rng.choice(1024, size=8, replace=False)
                      if a != victim)[:6]
    config = ExperimentConfig(
        topology=TopologySpec("torus", (32, 32)),
        routing=RoutingSpec("minimal-adaptive"),
        marking=MarkingSpec("ddpm"),
        selection=SelectionSpec("random"),
        seed=1, victim=victim, attackers=attackers,
        attack_rate_per_node=25.0, duration=2.0, background_rate=0.0,
    )

    result = benchmark.pedantic(runner.run, args=(config,),
                                rounds=1, iterations=1)
    report("Claim (scalability) - 1024-node torus end-to-end",
           f"delivered {result.packets_delivered} spoofed packets; "
           f"suspects == attackers: {result.score.exact} "
           f"({len(result.attackers)} attackers)")
    assert result.score.exact
    assert frozenset(result.suspects) == frozenset(attackers)
