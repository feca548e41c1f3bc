"""Opt-in event profiler: attribution, accounting, and report rendering."""

import pytest

from repro.engine.profile import EventProfiler, ProfileEntry
from repro.engine.simulator import Simulator


def _noop():
    """Inert event callback (module-level: schedule_call takes no closures)."""


class TestRecording:
    def test_records_every_executed_event(self):
        profiler = EventProfiler()
        sim = Simulator(profile=profiler)
        hits = []
        sim.schedule_call(1.0, hits.append, "a", label="tick")
        sim.schedule_call(2.0, hits.append, "b", label="tick")
        sim.schedule_at(3.0, hits.append, "c", label="other")
        sim.run()
        assert hits == ["a", "b", "c"]
        assert profiler.events_recorded == 3 == sim.events_executed

    def test_buckets_by_label_and_callsite(self):
        profiler = EventProfiler()
        sim = Simulator(profile=profiler)
        sink = []
        sim.schedule_call(1.0, sink.append, 1, label="fast")
        sim.schedule_call(2.0, sink.append, 2, label="fast")
        sim.schedule_call(3.0, sink.append, 3, label="slow")
        sim.run()
        entries = {(e.label, e.count) for e in profiler.entries()}
        assert ("fast", 2) in entries
        assert ("slow", 1) in entries
        for entry in profiler.entries():
            assert isinstance(entry, ProfileEntry)
            assert entry.total_time >= 0.0
            assert entry.callsite  # qualname of list.append

    def test_disabled_simulator_records_nothing(self):
        sim = Simulator()
        sim.schedule_call(1.0, _noop)
        sim.run()
        assert sim.profile is None

    def test_step_path_also_records(self):
        profiler = EventProfiler()
        sim = Simulator(profile=profiler)
        sink = []
        sim.schedule_call(1.0, sink.append, "x", label="stepped")
        assert sim.step() is True
        assert sink == ["x"]
        assert profiler.events_recorded == 1
        assert profiler.entries()[0].label == "stepped"


class TestReporting:
    def _profiled_sim(self):
        profiler = EventProfiler()
        sim = Simulator(profile=profiler)
        sink = []
        for i in range(5):
            sim.schedule_call(float(i + 1), sink.append, i, label="work")
        sim.run()
        return profiler

    def test_top_orders_by_cumulative_time(self):
        profiler = self._profiled_sim()
        entries = profiler.top(10)
        totals = [e.total_time for e in entries]
        assert totals == sorted(totals, reverse=True)

    def test_mean_time(self):
        entry = ProfileEntry("l", "c", 4, 2.0)
        assert entry.mean_time == pytest.approx(0.5)
        assert ProfileEntry("l", "c", 0, 0.0).mean_time == 0.0

    def test_as_dict_is_json_shaped(self):
        profiler = self._profiled_sim()
        summary = profiler.as_dict()
        assert summary
        for key, stats in summary.items():
            assert "@" in key
            assert set(stats) == {"count", "total_time", "mean_time"}

    def test_report_renders_header_and_rows(self):
        profiler = self._profiled_sim()
        text = profiler.report(top=3)
        assert "event profile: 5 events" in text
        assert "work" in text

    def test_reset_drops_samples(self):
        profiler = self._profiled_sim()
        assert profiler.total_time >= 0.0
        profiler.reset()
        assert profiler.events_recorded == 0
        assert profiler.entries() == []
