"""Victim-side decode throughput: per-packet ``observe`` vs columnar batches.

Not a paper artifact — the regression guard for the columnar mark-stream
layer. For each marking scheme a seeded fabric run captures a realistic
delivered-mark stream at the victim (real paths, real mark mixes), the
stream is tiled to ~200k marks, and the same victim analysis consumes it
twice: once through the per-packet ``observe`` loop, once through
``observe_batch`` over ring-sized columnar batches. The batches are built
outside the timed region: in the live pipeline the delivery ring fills its
preallocated columns incrementally at delivery time (that cost is charged
to the fabric-throughput benchmark), so what the victim pays per flush is
exactly one ``observe_batch`` call. Both paths must land on identical
suspect sets — the benchmark asserts that before it trusts either timing.

Records ``victim/<scheme>/batched_marks_per_sec`` and
``victim/<scheme>/per_packet_marks_per_sec`` in
``benchmarks/results/BENCH.json``; ``benchmarks/gate.py`` compares the
batched rate against the committed baseline ``benchmarks/BENCH.json`` and
enforces the >= 2x batched-over-per-packet floor.
"""

import math
import time

import numpy as np

from repro.defense.metrics import feed_packets_batched
from repro.network import Fabric
from repro.network.markstream import MarkBatch
from repro.registry import MARKING
from repro.routing import MinimalAdaptiveRouter, RandomPolicy
from repro.topology import Mesh

#: the paper's three scheme families (DDPM / PPM / DPM decode pipelines)
SCHEMES = ("ddpm", "ppm-full", "dpm")
TARGET_MARKS = 200_000
CHUNK_SIZE = 4096  # matches the delivery-ring default flush granularity
VICTIM = 0
REPEATS = 5


def _captured_stream(name, seed=0):
    """Real delivered packets at the victim of a seeded all-to-one run."""
    topology = Mesh((8, 8))
    rng = np.random.default_rng(seed)
    scheme = MARKING.create(name, rng, topology, 0.6)
    fabric = Fabric(topology, MinimalAdaptiveRouter(), marking=scheme)
    fabric.selection = RandomPolicy(np.random.default_rng(seed + 1))
    captured = []
    fabric.attach_delivery_sink(VICTIM,
                                lambda batch: captured.extend(batch.packets))
    sources = [n for n in topology.nodes() if n != VICTIM]
    for i in range(4000):
        fabric.inject(fabric.make_packet(sources[i % len(sources)], VICTIM),
                      delay=i * 0.01)
    fabric.run()
    assert captured, f"{name}: capture run delivered nothing"
    reps = -(-TARGET_MARKS // len(captured))
    return scheme, (captured * reps)[:TARGET_MARKS]


def _best_seconds(fn, loops=1):
    """Best-of-REPEATS seconds per call; ``loops`` calls per sample.

    The batched path finishes 200k marks in single-digit milliseconds, so
    each sample runs it several times back to back — timing a few-ms region
    once is scheduler-noise territory and flapped the CI gate.
    """
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - t0) / loops)
    return best


def test_victim_analysis_decode_throughput(report, record_bench):
    results = {}
    lines = []
    for name in SCHEMES:
        scheme, stream = _captured_stream(name)
        n_marks = len(stream)
        batches = [MarkBatch.from_packets(VICTIM, stream[i:i + CHUNK_SIZE])
                   for i in range(0, n_marks, CHUNK_SIZE)]

        def per_packet():
            analysis = scheme.new_victim_analysis(VICTIM)
            observe = analysis.observe
            for packet in stream:
                observe(packet)
            return analysis

        def batched():
            analysis = scheme.new_victim_analysis(VICTIM)
            observe_batch = analysis.observe_batch
            for batch in batches:
                observe_batch(batch)
            return analysis

        # Equivalence before speed: both paths must agree on everything the
        # defense reports, otherwise the timing comparison is meaningless —
        # and the from_packets replay front-end must agree with both.
        ref, fast = per_packet(), batched()
        replayed = scheme.new_victim_analysis(VICTIM)
        feed_packets_batched(replayed, stream, chunk_size=CHUNK_SIZE)
        assert fast.suspects() == ref.suspects() == replayed.suspects()
        assert fast.packets_observed == ref.packets_observed == n_marks
        assert replayed.packets_observed == n_marks
        assert fast.corrupted_packets == ref.corrupted_packets

        s_pp = _best_seconds(per_packet)
        s_b = _best_seconds(batched, loops=20)
        per_packet_rate = n_marks / s_pp
        batched_rate = n_marks / s_b
        results[f"victim/{name}/per_packet_marks_per_sec"] = per_packet_rate
        results[f"victim/{name}/batched_marks_per_sec"] = batched_rate
        lines.append(f"{name:>10}: per-packet {per_packet_rate:>12,.0f} "
                     f"marks/s, batched {batched_rate:>12,.0f} marks/s "
                     f"({batched_rate / per_packet_rate:.1f}x)")
        assert batched_rate > 0 and per_packet_rate > 0

    record_bench(results)
    report("Engineering - victim analysis decode throughput "
           "(columnar observe_batch vs per-packet observe, 200k-mark streams)",
           "\n".join(lines))
