"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one row ``[name, start, end, parent, experiment]``: wall-clock
start and end from ``time.perf_counter``, the index of the enclosing span
(-1 for a root) and the id of the experiment it belongs to. Spans nest
strictly (the benchmark is single-threaded), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

__all__ = ["Tracer", "self_times", "layer_self_times", "COLUMNS"]

COLUMNS = ("name", "start", "end", "parent", "experiment")
NAME, START, END, PARENT, EXPERIMENT = range(len(COLUMNS))


class Tracer:
    """Records nested spans in memory; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: experiment id stamped on every span begun from now on
        self.experiment = 0
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.experiment])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` (and any span an exception left open in it)."""
        self.spans[index][END] = time.perf_counter()
        while self._open and self._open.pop() != index:
            pass

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            out[parent] -= span[END] - span[START]
    return out


def layer_self_times(spans: Sequence[Sequence]) -> Dict[int, Dict[str, float]]:
    """``{experiment: {span name: summed self time}}``."""
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        out[span[EXPERIMENT]][span[NAME]] += own
    return {exp: dict(names) for exp, names in out.items()}
