"""Unit tests for statistics collectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.stats import Counter, Histogram, TimeSeries, WelfordAccumulator


class TestCounter:
    def test_incr_and_get(self):
        c = Counter()
        c.incr("x")
        c.incr("x", 4)
        assert c.get("x") == 5
        assert c["x"] == 5

    def test_unknown_is_zero(self):
        assert Counter().get("nothing") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().incr("x", -1)

    def test_as_dict_snapshot(self):
        c = Counter()
        c.incr("a")
        snap = c.as_dict()
        c.incr("a")
        assert snap == {"a": 1}


class TestWelford:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5, 2, size=1000)
        acc = WelfordAccumulator()
        for x in data:
            acc.add(x)
        assert acc.count == 1000
        assert acc.mean == pytest.approx(np.mean(data))
        assert acc.variance == pytest.approx(np.var(data, ddof=1))
        assert acc.std == pytest.approx(np.std(data, ddof=1))
        assert acc.min == data.min()
        assert acc.max == data.max()

    def test_empty_is_nan(self):
        acc = WelfordAccumulator()
        assert math.isnan(acc.mean)
        assert math.isnan(acc.variance)

    def test_single_sample(self):
        acc = WelfordAccumulator()
        acc.add(3.0)
        assert acc.mean == 3.0
        assert math.isnan(acc.variance)

    def test_merge_equals_combined_stream(self):
        rng = np.random.default_rng(1)
        a_data, b_data = rng.normal(size=100), rng.normal(size=57)
        a, b, whole = WelfordAccumulator(), WelfordAccumulator(), WelfordAccumulator()
        for x in a_data:
            a.add(x)
            whole.add(x)
        for x in b_data:
            b.add(x)
            whole.add(x)
        merged = a.merge(b)
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean)
        assert merged.variance == pytest.approx(whole.variance)

    def test_merge_with_empty(self):
        a = WelfordAccumulator()
        a.add(1.0)
        merged = a.merge(WelfordAccumulator())
        assert merged.count == 1
        assert merged.mean == 1.0


    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
    def test_add_array_mean_is_numpy_mean_bitwise(self, values):
        """add_array takes a column's mean as sum / count: bit for bit
        numpy's mean, which the batched golden pins were recorded with."""
        column = np.array(values)
        acc = WelfordAccumulator()
        acc.add_array(column)
        assert acc.count == column.size
        assert acc._mean == float(column.mean())


class TestHistogram:
    def test_counts_and_mean(self):
        h = Histogram()
        for v in (1, 2, 2, 3):
            h.add(v)
        assert h.counts() == {1: 1, 2: 2, 3: 1}
        assert h.mean() == 2.0
        assert h.max() == 3

    def test_percentiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.add(v)
        assert h.percentile(0.5) == 50
        assert h.percentile(1.0) == 100
        assert h.percentile(0.01) == 1

    def test_empty_guards(self):
        h = Histogram()
        assert math.isnan(h.mean())
        with pytest.raises(ValueError):
            h.percentile(0.5)
        with pytest.raises(ValueError):
            h.max()

    def test_percentile_bounds_checked(self):
        h = Histogram()
        h.add(1)
        with pytest.raises(ValueError):
            h.percentile(1.5)


class TestTimeSeries:
    def test_arrays(self):
        ts = TimeSeries()
        ts.add(0.0, 1.0)
        ts.add(1.0, 2.0)
        times, values = ts.arrays()
        assert list(times) == [0.0, 1.0]
        assert list(values) == [1.0, 2.0]
        assert len(ts) == 2

    def test_non_monotone_rejected(self):
        ts = TimeSeries()
        ts.add(1.0, 0.0)
        with pytest.raises(ValueError):
            ts.add(0.5, 0.0)

    def test_rate_in_window(self):
        ts = TimeSeries()
        for t in range(10):
            ts.add(float(t), 1.0)
        assert ts.rate_in_window(0.0, 5.0) == pytest.approx(1.0)

    def test_empty_window_rejected(self):
        ts = TimeSeries()
        with pytest.raises(ValueError):
            ts.rate_in_window(1.0, 1.0)
