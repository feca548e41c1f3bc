"""Lightweight statistics collectors used throughout the simulator.

These avoid storing raw samples where a running summary suffices
(:class:`WelfordAccumulator`), and keep the full series only where the
benchmarks need distributions (:class:`Histogram`, :class:`TimeSeries`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["Counter", "WelfordAccumulator", "Histogram", "TimeSeries"]


class Counter:
    """Named monotonically increasing counters (packets sent, marks written...)."""

    def __init__(self):
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counts)

    def __getitem__(self, name: str) -> int:
        return self.get(name)


class WelfordAccumulator:
    """Streaming mean/variance/min/max via Welford's algorithm.

    Numerically stable for long runs; O(1) memory regardless of sample count.
    """

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the summary."""
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Sample mean (nan when empty)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (nan for fewer than 2 samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        v = self.variance
        return math.sqrt(v) if not math.isnan(v) else math.nan

    def add_array(self, values) -> None:
        """Fold a whole sample column in place (Chan's parallel merge).

        Equivalent (to floating-point merge order) to ``add`` per element;
        the batched engine folds one latency column per cohort round instead
        of one Python call per delivered packet.
        """
        column = np.asarray(values, dtype=np.float64).reshape(-1)
        n = int(column.size)
        if n == 0:
            return
        # Bit for bit column.mean(), numpy's pairwise sum over the count,
        # without that call's Python-level overhead.
        b_mean = float(column.sum()) / n
        b_m2 = float(((column - b_mean) ** 2).sum())
        b_min = float(column.min())
        b_max = float(column.max())
        total = self.count + n
        delta = b_mean - self._mean
        if self.count == 0:
            self._mean = b_mean
            self._m2 = b_m2
        else:
            self._mean += delta * n / total
            self._m2 += b_m2 + delta * delta * self.count * n / total
        self.count = total
        if b_min < self.min:
            self.min = b_min
        if b_max > self.max:
            self.max = b_max

    def merge(self, other: "WelfordAccumulator") -> "WelfordAccumulator":
        """Return a new accumulator equal to folding both sample sets (Chan's method)."""
        out = WelfordAccumulator()
        if self.count == 0:
            src = other
        elif other.count == 0:
            src = self
        else:
            out.count = self.count + other.count
            delta = other._mean - self._mean
            out._mean = self._mean + delta * other.count / out.count
            out._m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / out.count
            out.min = min(self.min, other.min)
            out.max = max(self.max, other.max)
            return out
        out.count = src.count
        out._mean = src._mean
        out._m2 = src._m2
        out.min = src.min
        out.max = src.max
        return out


class Histogram:
    """Integer-valued histogram with exact counts per value.

    Suited to hop counts, queue depths, packets-to-identify — small discrete
    supports where exact distributions matter.
    """

    def __init__(self):
        self._counts: Dict[int, int] = {}
        self.total = 0

    def add(self, value: int, count: int = 1) -> None:
        """Record ``count`` observations of integer ``value``."""
        value = int(value)
        self._counts[value] = self._counts.get(value, 0) + count
        self.total += count

    def counts(self) -> Dict[int, int]:
        """Mapping value -> observation count."""
        return dict(self._counts)

    def mean(self) -> float:
        """Weighted mean of observed values (nan when empty)."""
        if not self.total:
            return math.nan
        return sum(v * c for v, c in self._counts.items()) / self.total

    def percentile(self, q: float) -> int:
        """Smallest value v such that P(X <= v) >= q (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q}")
        if not self.total:
            raise ValueError("percentile of an empty histogram")
        threshold = q * self.total
        running = 0
        for value in sorted(self._counts):
            running += self._counts[value]
            if running >= threshold:
                return value
        return max(self._counts)  # pragma: no cover - unreachable

    def max(self) -> int:
        """Largest observed value."""
        if not self._counts:
            raise ValueError("max of an empty histogram")
        return max(self._counts)


class TimeSeries:
    """(time, value) samples with numpy export and windowed rates."""

    def __init__(self):
        self._times: List[float] = []
        self._values: List[float] = []

    def add(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(f"time {time} precedes last sample {self._times[-1]}")
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (times, values) as float64 numpy arrays."""
        return np.asarray(self._times, dtype=float), np.asarray(self._values, dtype=float)

    def rate_in_window(self, start: float, end: float) -> float:
        """Sum of values with start <= t < end, divided by the window length."""
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        times, values = self.arrays()
        mask = (times >= start) & (times < end)
        return float(values[mask].sum()) / (end - start)
