"""Columnar mark-stream: ring mechanics and batch equivalence.

The contract under test (markstream module docstring): processing a delivery
stream through batched sinks — for ANY flush schedule — leaves bit-identical
defense state to the per-packet handler path: same suspect sets, same
``first_suspect_time``, same detector internals, same analyzed/total packet
counters. That makes the columnar layer a pure performance change.
"""

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.defense.detection import CusumDetector, RateThresholdDetector
from repro.defense.identification import IdentificationPipeline
from repro.defense.metrics import feed_packets_batched
from repro.engine.profile import EventProfiler
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.marking import DdpmScheme
from repro.network import Fabric
from repro.network.ip import IPHeader
from repro.network.markstream import DeliveryRing, MarkBatch
from repro.network.packet import Packet
from repro.routing import DimensionOrderRouter, MinimalAdaptiveRouter, RandomPolicy
from repro.topology import Mesh


def make_packets(n, src=1, dst=2, t0=0.0, dt=0.1):
    out = []
    for i in range(n):
        p = Packet(IPHeader(src, dst, ttl=32, total_length=84), src, dst)
        p.header.identification = i % 7
        p.delivered_at = t0 + i * dt
        out.append(p)
    return out


class TestMarkBatch:
    def test_from_packets_columns_mirror_rows(self):
        packets = make_packets(5)
        batch = MarkBatch.from_packets(2, packets)
        assert len(batch) == 5
        assert batch.node == 2
        np.testing.assert_array_equal(batch.words, [0, 1, 2, 3, 4])
        np.testing.assert_allclose(batch.times, [0.0, 0.1, 0.2, 0.3, 0.4])
        assert batch.packets == packets

    def test_explicit_times_shape_checked(self):
        packets = make_packets(3)
        with pytest.raises(ConfigurationError):
            MarkBatch.from_packets(0, packets, times=[1.0, 2.0])

    def test_compress_keeps_masked_rows_in_order(self):
        batch = MarkBatch.from_packets(0, make_packets(6))
        mask = np.array([False, True, False, True, True, False])
        kept = batch.compress(mask)
        assert len(kept) == 3
        np.testing.assert_array_equal(kept.words, [1, 3, 4])
        assert [p.packet_id for p in kept.packets] == \
            [batch.packets[i].packet_id for i in (1, 3, 4)]

    def test_tail_is_the_remainder(self):
        batch = MarkBatch.from_packets(0, make_packets(4))
        rest = batch.tail(3)
        assert len(rest) == 1
        assert rest.packets[0] is batch.packets[3]
        assert batch.tail(4).packets == [] and len(batch.tail(4)) == 0


class TestDeliveryRing:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            DeliveryRing(0, 0)

    def test_auto_flush_at_capacity_and_manual_flush(self):
        seen = []
        ring = DeliveryRing(0, capacity=4)
        ring.add_consumer(lambda b: seen.append(list(b.words)))
        packets = make_packets(6)
        for p in packets:
            ring.append(p, p.delivered_at)
        assert ring.flushes == 1 and ring.pending == 2
        assert ring.flush() == 2
        assert ring.flush() == 0  # empty flush is a no-op
        assert ring.flushes == 2 and ring.rows_flushed == 6
        assert [len(s) for s in seen] == [4, 2]
        assert [w for s in seen for w in s] == [0, 1, 2, 3, 4, 5]

    def test_reentrant_flush_from_consumer_is_safe(self):
        ring = DeliveryRing(0, capacity=8)
        calls = []
        ring.add_consumer(lambda b: (calls.append(len(b)), ring.flush()))
        for p in make_packets(3):
            ring.append(p, 0.0)
        ring.flush()
        assert calls == [3]

    def test_profiler_counts_flushes(self):
        profiler = EventProfiler()
        ring = DeliveryRing(0, capacity=8, profiler=profiler)
        ring.add_consumer(lambda b: None)
        for p in make_packets(5):
            ring.append(p, 0.0)
        ring.flush()
        stats = profiler.flush_stats()["delivery-ring"]
        assert stats["flushes"] == 1 and stats["rows"] == 5
        assert "flush@delivery-ring" in profiler.as_dict()


def build_fabric(seed=0):
    scheme = DdpmScheme()
    fab = Fabric(Mesh((4, 4)), MinimalAdaptiveRouter(), marking=scheme,
                 selection=RandomPolicy(np.random.default_rng(seed)))
    return fab, scheme


def run_scenario(fab, victim=15):
    """Quiet phase from node 1, flood from node 9 — same in every mode."""
    for i in range(6):
        fab.inject(fab.make_packet(1, victim), delay=i * 0.5)
    for i in range(200):
        fab.inject(fab.make_packet(9, victim), delay=10.0 + i * 0.005)
    fab.run()


class TestPipelineBatchEquivalence:
    """Batched pipelines reproduce the per-packet pipeline bit for bit."""

    @pytest.mark.parametrize("capacity", [1, 3, 64, 4096])
    def test_detector_gated_timeline_identical(self, capacity):
        fab_ref, scheme_ref = build_fabric()
        ref = IdentificationPipeline(
            fab_ref, 15, scheme_ref.new_victim_analysis(15),
            RateThresholdDetector(window=1.0, threshold_rate=20.0))
        run_scenario(fab_ref)

        fab_b, scheme_b = build_fabric()
        batched = IdentificationPipeline(
            fab_b, 15, scheme_b.new_victim_analysis(15),
            RateThresholdDetector(window=1.0, threshold_rate=20.0),
            batch=True, batch_capacity=capacity)
        run_scenario(fab_b)

        assert batched.timeline() == ref.timeline()
        assert batched.suspects() == ref.suspects() == frozenset({9})
        assert batched.first_suspect_time == ref.first_suspect_time
        assert batched.alarm_time == ref.alarm_time

    def test_cusum_detector_identical(self):
        fab_ref, scheme_ref = build_fabric()
        ref = IdentificationPipeline(
            fab_ref, 15, scheme_ref.new_victim_analysis(15),
            CusumDetector(window=0.5, drift=5.0, threshold=20.0))
        run_scenario(fab_ref)

        fab_b, scheme_b = build_fabric()
        batched = IdentificationPipeline(
            fab_b, 15, scheme_b.new_victim_analysis(15),
            CusumDetector(window=0.5, drift=5.0, threshold=20.0),
            batch=True, batch_capacity=37)
        run_scenario(fab_b)

        assert batched.timeline() == ref.timeline()
        assert batched.detector.statistic == ref.detector.statistic
        assert batched.detector._bucket_start == ref.detector._bucket_start

    def test_no_detector_batch_mode(self):
        fab_ref, scheme_ref = build_fabric()
        ref = IdentificationPipeline(fab_ref, 15,
                                     scheme_ref.new_victim_analysis(15))
        run_scenario(fab_ref)

        fab_b, scheme_b = build_fabric()
        batched = IdentificationPipeline(fab_b, 15,
                                         scheme_b.new_victim_analysis(15),
                                         batch=True, batch_capacity=16)
        run_scenario(fab_b)
        assert batched.timeline() == ref.timeline()
        assert batched.suspects() == ref.suspects()

    def test_detector_sees_post_alarm_deliveries(self):
        """Regression: the batched path must feed the detector EVERY
        delivery — including rows after the alarm — or its sliding window
        (and any later de-alarm decision) diverges from the per-packet path.
        """
        fab_ref, scheme_ref = build_fabric()
        ref = IdentificationPipeline(
            fab_ref, 15, scheme_ref.new_victim_analysis(15),
            RateThresholdDetector(window=1.0, threshold_rate=20.0))
        run_scenario(fab_ref)

        fab_b, scheme_b = build_fabric()
        batched = IdentificationPipeline(
            fab_b, 15, scheme_b.new_victim_analysis(15),
            RateThresholdDetector(window=1.0, threshold_rate=20.0),
            batch=True, batch_capacity=50)
        run_scenario(fab_b)

        assert batched.detector.packets_seen == batched.total_deliveries
        assert batched.detector.packets_seen == ref.detector.packets_seen
        assert list(batched.detector._times) == list(ref.detector._times)
        assert batched.detector.under_attack == ref.detector.under_attack

    def test_mid_run_accessors_flush_the_ring(self):
        fab, scheme = build_fabric()
        pipeline = IdentificationPipeline(fab, 15,
                                          scheme.new_victim_analysis(15),
                                          batch=True, batch_capacity=4096)
        for i in range(10):
            fab.inject(fab.make_packet(3, 15), delay=i * 0.1)
        fab.sim.run_until(5.0)  # bypass Fabric.run_until's own flush
        assert pipeline._ring.pending > 0
        assert pipeline.suspects() == frozenset({3})
        assert pipeline._ring.pending == 0

    def test_cohort_engine_batches_carry_no_packets(self):
        # DOR + DDPM is an identical cell of the engine contract; the
        # batched engine's rows reach the pipeline as columns only.
        pipelines = {}
        for engine in ("exact", "batched"):
            cluster = Cluster(Mesh((4, 4)), DimensionOrderRouter(),
                              marking=DdpmScheme(), seed=3, engine=engine)
            victim = cluster.default_victim()
            pipelines[engine] = IdentificationPipeline(
                cluster.fabric, victim,
                cluster.marking.new_victim_analysis(victim),
                batch=engine == "batched")
            attack = cluster.launch_ddos(
                victim=victim, num_attackers=3, attack_rate_per_node=25.0,
                duration=1.0, background_rate=0.0)
            cluster.run()
        batched = pipelines["batched"]
        assert batched.suspects() == pipelines["exact"].suspects() \
            == frozenset(attack.attackers)
        assert batched.first_suspect_time is not None


class TestFeedPacketsBatched:
    def test_matches_per_packet_feed(self):
        scheme = DdpmScheme()
        scheme.attach(Mesh((4, 4)))
        fab, fab_scheme = build_fabric()
        delivered = []
        fab.add_delivery_handler(15, lambda ev: delivered.append(ev.packet))
        run_scenario(fab)

        ref = fab_scheme.new_victim_analysis(15)
        for p in delivered:
            ref.observe(p)
        batched = fab_scheme.new_victim_analysis(15)
        assert feed_packets_batched(batched, delivered, chunk_size=33) \
            == len(delivered)
        assert batched.suspects() == ref.suspects()
        assert batched.packets_observed == ref.packets_observed
        assert batched.source_counts == ref.source_counts

    def test_chunk_size_validated(self):
        scheme = DdpmScheme()
        scheme.attach(Mesh((4, 4)))
        with pytest.raises(ConfigurationError):
            feed_packets_batched(scheme.new_victim_analysis(0), [], chunk_size=0)


class TestDetectorBatchFallbacks:
    def test_rate_threshold_unsorted_times_fall_back(self):
        """Synthetic out-of-order replays take the exact per-row loop."""
        packets = make_packets(8)
        times = [0.0, 0.5, 0.3, 0.9, 1.1, 1.0, 2.0, 2.1]
        ref = RateThresholdDetector(window=1.0, threshold_rate=3.0)
        from repro.network.nic import DeliveredPacket
        for p, t in zip(packets, times):
            ref.observe(DeliveredPacket(p, 0, t))
        vec = RateThresholdDetector(window=1.0, threshold_rate=3.0)
        mask = vec.observe_batch(MarkBatch.from_packets(0, packets, times=times))
        assert vec.packets_seen == ref.packets_seen
        assert list(vec._times) == list(ref._times)
        assert vec.alarm_time == ref.alarm_time
        assert bool(mask[-1]) == ref.under_attack

    def test_rate_threshold_batch_start_before_tail_falls_back(self):
        from repro.network.nic import DeliveredPacket
        ref = RateThresholdDetector(window=1.0, threshold_rate=3.0)
        vec = RateThresholdDetector(window=1.0, threshold_rate=3.0)
        first = make_packets(3, t0=1.0, dt=0.1)
        for p in first:
            ref.observe(DeliveredPacket(p, 0, p.delivered_at))
        vec.observe_batch(MarkBatch.from_packets(0, first))
        # Second batch starts EARLIER than the retained window tail.
        second = make_packets(3, t0=0.5, dt=0.1)
        for p in second:
            ref.observe(DeliveredPacket(p, 0, p.delivered_at))
        vec.observe_batch(MarkBatch.from_packets(0, second))
        assert list(vec._times) == list(ref._times)
        assert vec.packets_seen == ref.packets_seen

    def test_cusum_unsorted_times_fall_back(self):
        from repro.network.nic import DeliveredPacket
        packets = make_packets(6)
        times = [0.0, 1.2, 0.9, 2.0, 3.5, 3.4]
        ref = CusumDetector(window=0.5, drift=1.0, threshold=2.0)
        for p, t in zip(packets, times):
            ref.observe(DeliveredPacket(p, 0, t))
        vec = CusumDetector(window=0.5, drift=1.0, threshold=2.0)
        vec.observe_batch(MarkBatch.from_packets(0, packets, times=times))
        assert vec.statistic == ref.statistic
        assert vec._bucket_start == ref._bucket_start
        assert vec._bucket_count == ref._bucket_count
        assert vec.alarm_time == ref.alarm_time
