#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/pipeline/compare.py BASE.jsonl NEW.jsonl

Each file holds run records, one JSON object a line, as ``run.py`` appends
them to ``results/runs.jsonl`` (move that file aside between the two sets).
For every (metric, workload) pair the report gives both sides' first
quartile, median and third quartile and a verdict:

* ``ok`` - the new median is no worse than the base median by more than
  the metric's bound;
* ``regressed`` - it is worse by more than the bound;
* ``unresolved`` - the run-to-run spread (quartile distance over median)
  of either side exceeds the bound, so the medians cannot be compared;
* ``better`` - the spread is too wide, but every new run reads better than
  every base run;
* ``-`` - a per-layer metric, which has no bound.

Every bounded timing is taken relative to the host's speed, so no verdict
depends on it; the report still gives the change of the median
``host_ref_s`` (the host-speed reading each run records), because the
unbounded per-layer times are raw wall time and move with it.

Runs of the same workload and seed must also agree on ``sim_digest``. The
command exits with status 1 on a regression or a digest mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["quartiles", "compare", "host_shift", "digest_mismatches",
           "load_runs"]

Values = Dict[str, Dict[str, List[float]]]

#: the host-speed diagnostic each run record carries in its values
HOST_REF = "host_ref_s"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median, third quartile (as ``statistics.quantiles``)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(q: Tuple[float, float, float]) -> float:
    if q[1] == 0:
        return 0.0 if q[0] == q[2] else float("inf")
    return (q[2] - q[0]) / abs(q[1])


def host_shift(base: Values, new: Values, workload: str) -> float:
    """Relative change of the median ``host_ref_s`` from base to new.

    0.0 when either side has no reading.
    """
    b, n = base[workload].get(HOST_REF), new[workload].get(HOST_REF)
    if not b or not n:
        return 0.0
    return statistics.median(n) / statistics.median(b) - 1.0


def compare(base: Values, new: Values,
            metrics: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One row per (metric, workload) present on both sides.

    ``base`` and ``new`` map workload -> metric -> per-run values (the
    per-run ``host_ref_s`` readings included); ``metrics`` are
    BENCHMARK.json entries (``name``, ``unit``, ``better`` and, for
    end-to-end metrics, ``bound``).
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        bound: Optional[float] = metric.get("bound")
        for workload in sorted(set(base) & set(new)):
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            if bq[1] == 0:
                change = 0.0 if nq[1] == 0 else float("inf")
            else:
                change = nq[1] / bq[1] - 1.0
            worse = change if lower else -change
            spread = max(_spread(bq), _spread(nq))
            if bound is None:
                verdict = "-"
            elif spread > bound:
                all_better = max(n) < min(b) if lower else min(n) > max(b)
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({"metric": name, "workload": workload,
                         "base": bq, "new": nq, "change": change,
                         "spread": spread,
                         "host_shift": host_shift(base, new, workload),
                         "bound": bound,
                         "verdict": verdict})
    return rows


def digest_mismatches(base: Dict[Tuple[str, int], str],
                      new: Dict[Tuple[str, int], str]) -> List[Tuple[str, int]]:
    """(workload, seed) keys present on both sides whose digests differ."""
    return sorted(key for key in set(base) & set(new) if base[key] != new[key])


def load_runs(path: Path) -> Tuple[Values, Dict[Tuple[str, int], str]]:
    """Per-run metric values and sim digests from a runs.jsonl file."""
    values: Values = {}
    digests: Dict[Tuple[str, int], str] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        per_metric = values.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
        if HOST_REF in record["values"]:
            per_metric.setdefault(HOST_REF, []).append(
                record["values"][HOST_REF])
        digests[(record["workload"], record["meta"]["seed"])] = record["sim_digest"]
    return values, digests


def main(argv: Sequence[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    base, base_digests = load_runs(Path(argv[1]))
    new, new_digests = load_runs(Path(argv[2]))
    rows = compare(base, new, spec["end_to_end"] + spec["per_layer"])
    print(f"{'metric':26s} {'workload':28s} {'base q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s} {'change':>8s} {'spread':>7s} "
          f"{'host':>7s} verdict")
    for row in rows:
        b = "/".join(f"{v:.4g}" for v in row["base"])
        n = "/".join(f"{v:.4g}" for v in row["new"])
        print(f"{row['metric']:26s} {row['workload']:28s} {b:>32s} {n:>32s} "
              f"{row['change']:+8.3f} {row['spread']:7.3f} "
              f"{row['host_shift']:+7.3f} {row['verdict']}")
    mismatches = digest_mismatches(base_digests, new_digests)
    for workload, seed in mismatches:
        print(f"sim_digest differs: {workload} seed {seed}")
    shared = len(set(base_digests) & set(new_digests))
    print(f"sim_digest: {shared - len(mismatches)} of {shared} shared "
          "(workload, seed) runs match")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    return 1 if regressed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
