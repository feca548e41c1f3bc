"""The detect-then-identify pipeline at a victim node.

Wires a :class:`Detector` and a marking scheme's
:class:`~repro.marking.base.VictimAnalysis` onto one fabric node: every
delivery feeds the detector; once (and while) the detector alarms,
deliveries also feed the victim analysis, whose suspect set becomes the
identification output. Records the timeline — alarm time, first-suspect
time — that the end-to-end benchmarks report.

Two wire-up modes share identical semantics:

* **per-packet** (default): a delivery handler runs the full chain for
  every packet, exactly as above;
* **batched** (``batch=True``): deliveries at the victim NIC land in a
  columnar :class:`~repro.network.markstream.DeliveryRing` and the chain
  runs per flushed batch — the detector's ``observe_batch`` yields the
  same per-row gating mask the per-packet path would produce (the
  detector sees *every* delivery, including post-alarm ones, so its
  window/statistic state never diverges), and the victim analysis decodes
  the surviving rows vectorized. Suspect sets, ``first_suspect_time``,
  ``analyzed_packets`` and detector state are bit-identical between modes
  for any flush schedule; the golden-equivalence and markstream test
  suites pin this.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, TYPE_CHECKING

from repro.defense.detection import Detector
from repro.marking.base import VictimAnalysis
from repro.network.fabric import Fabric
from repro.network.nic import DeliveredPacket

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.markstream import MarkBatch

__all__ = ["IdentificationPipeline"]


class IdentificationPipeline:
    """Detector-gated victim analysis on one node.

    Parameters
    ----------
    detector:
        Attack detector; when None, *every* delivered packet is analyzed
        (the paper's "assume detection exists" mode, used when scoring
        identification in isolation).
    batch:
        When True, consume deliveries through the fabric's columnar
        delivery ring instead of a per-packet handler. Results are
        identical; throughput is not (see benchmarks/bench_victim_analysis).
    batch_capacity:
        Ring size in the batched mode; flushes happen when the ring fills
        and at simulator run boundaries. A pure performance knob — any
        capacity yields the same final state.
    """

    def __init__(self, fabric: Fabric, victim: int, analysis: VictimAnalysis,
                 detector: Optional[Detector] = None, *,
                 batch: bool = False, batch_capacity: int = 1024):
        self.fabric = fabric
        self.victim = victim
        self.analysis = analysis
        self.detector = detector
        self.first_suspect_time: Optional[float] = None
        self.analyzed_packets = 0
        self.total_deliveries = 0
        self._ring = None
        if batch:
            self._ring = fabric.attach_delivery_sink(
                victim, self._on_batch, capacity=batch_capacity)
        else:
            fabric.add_delivery_handler(victim, self._on_delivery)

    # -- per-packet mode -----------------------------------------------
    def _on_delivery(self, event: DeliveredPacket) -> None:
        self.total_deliveries += 1
        if self.detector is not None:
            self.detector.observe(event)
            if not self.detector.under_attack:
                return
        self.analysis.observe(event.packet)
        self.analyzed_packets += 1
        if self.first_suspect_time is None and self.analysis.suspects():
            self.first_suspect_time = event.time

    # -- batched mode ---------------------------------------------------
    def _on_batch(self, batch: "MarkBatch") -> None:
        n = len(batch)
        if n == 0:
            return
        self.total_deliveries += n
        if self.detector is not None:
            # The detector observes the FULL batch — post-alarm rows
            # included — so its window contents, statistics, and
            # packets_seen match the per-packet path, where every delivery
            # feeds the detector before the gate. The returned mask then
            # reproduces the per-row gating decision.
            mask = self.detector.observe_batch(batch)
            if not mask.all():
                batch = batch.compress(mask)
                n = len(batch)
                if n == 0:
                    return
        self.analyzed_packets += n
        analysis = self.analysis
        if self.first_suspect_time is None:
            # Watching phase: the first-suspect timestamp is defined per
            # packet, so replay rows as one-row batches until the suspect
            # set first becomes non-empty; the remainder of the batch (and
            # all later batches) take the vectorized path. Reading columns
            # only, this serves the cohort engines' packet-less batches too.
            times = batch.times
            for i in range(n):
                analysis.observe_batch(batch.rows(i, i + 1))
                if analysis.suspects():
                    self.first_suspect_time = float(times[i])
                    rest = batch.tail(i + 1)
                    if len(rest):
                        analysis.observe_batch(rest)
                    return
        else:
            analysis.observe_batch(batch)

    def _drain(self) -> None:
        """Flush pending ring rows so accessors reflect every delivery."""
        if self._ring is not None:
            self._ring.flush()

    # ------------------------------------------------------------------
    def suspects(self) -> FrozenSet[int]:
        """Current identified source suspects."""
        self._drain()
        return self.analysis.suspects()

    @property
    def alarm_time(self) -> Optional[float]:
        """When the detector first alarmed (None without a detector or alarm)."""
        self._drain()
        return self.detector.alarm_time if self.detector is not None else None

    def timeline(self) -> dict:
        """Flat summary for result records."""
        self._drain()
        return {
            "alarm_time": self.alarm_time,
            "first_suspect_time": self.first_suspect_time,
            "analyzed_packets": self.analyzed_packets,
            "total_deliveries": self.total_deliveries,
            "num_suspects": len(self.suspects()),
        }
