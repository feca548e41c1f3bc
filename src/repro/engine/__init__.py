"""Discrete-event simulation kernel.

A deliberately small event-driven core: a binary-heap scheduler whose
events run in ``(time, seq)`` order (:class:`Simulator`), deterministic
per-component random streams (:class:`RngRegistry`), and lightweight
statistics collectors. The network fabric (:mod:`repro.network`) is built
entirely on these primitives.
"""

from repro.engine.profile import EventProfiler, ProfileEntry
from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.engine.stats import Counter, Histogram, TimeSeries, WelfordAccumulator
from repro.engine.watchdog import Watchdog, WatchdogReport

__all__ = [
    "EventProfiler",
    "ProfileEntry",
    "Simulator",
    "RngRegistry",
    "Watchdog",
    "WatchdogReport",
    "Counter",
    "Histogram",
    "TimeSeries",
    "WelfordAccumulator",
]
