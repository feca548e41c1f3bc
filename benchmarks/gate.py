"""The benchmark regression gate for CI: fabric throughput and victim decode.

Compares the fresh numbers in ``results/BENCH.json`` (a flat map from metric
name to value plus the host ``cpu_count``, written by the
``bench_fabric_throughput.py``, ``bench_fabric_batched.py``,
``bench_fabric_sharded.py`` and ``bench_victim_analysis.py`` suites through
the ``record_bench`` fixture) against the committed baseline ``BENCH.json``,
and exits non-zero when:

* a baseline metric's fresh value falls below ``bound x value``. The
  fabric bounds are 0.85: CI machines are noisy, so the gate catches
  structural regressions, not a few percent of jitter. The victim bounds
  are 0.7: a 200k-mark batched decode finishes in milliseconds, where
  +-25% run to run is routine.
* a speedup floor fails: ``numerator / denominator`` of two fresh metrics
  below ``ratio``. Each floor is an engine's or layer's reason to exist:
  batched >= 10x exact on the matched workload, sharded >= 2x same-run
  batched at 4 shards (both stored scaled by 0.85), and columnar victim
  decode >= 2x per-packet. A floor with ``min_cores`` is skipped, loudly,
  on a host with fewer cores: a parallel speedup needs parallel hardware.
* a baseline metric or floor input is missing from the fresh file, or
  the file itself is missing. Stale numbers never pass: ``make bench-gate``
  deletes the file before it runs the suites.

Being *faster* than the baseline never fails. To refresh a baseline when a
change legitimately shifts throughput, copy the fresh value into the
metric's ``value``.

``check`` is pure in (baseline, fresh) so ``tests/test_bench_gate.py`` can
drive it directly; ``main`` only does IO.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
BASELINE = HERE / "BENCH.json"
FRESH = HERE / "results" / "BENCH.json"


def check(baseline, fresh):
    """Judge ``fresh`` against ``baseline``: one ``(status, line)`` row per
    metric and floor, status ``"ok"``, ``"FAIL"`` or ``"SKIP"``."""
    rows = []
    for key, entry in baseline["metrics"].items():
        if key not in fresh:
            rows.append(("FAIL", f"{key}: missing from fresh results"))
            continue
        passed = fresh[key] >= entry["value"] * entry["bound"]
        rows.append(("ok" if passed else "FAIL",
                     f"{key}: fresh {fresh[key]:,.0f} vs baseline "
                     f"{entry['value']:,.0f} "
                     f"({fresh[key] / entry['value']:.2f}x, requires "
                     f">= {entry['bound']:.2f}x)"))
    for floor in baseline["floors"]:
        num, den = floor["numerator"], floor["denominator"]
        required, label = floor["ratio"], f"{num} / {den}"
        inputs = [num, den] + (["cpu_count"] if "min_cores" in floor else [])
        missing = [key for key in inputs if key not in fresh]
        if missing:
            rows.append(("FAIL", f"{label}: fresh results lack "
                                 f"{', '.join(missing)}"))
        elif fresh.get("cpu_count", 0) < floor.get("min_cores", 0):
            rows.append(("SKIP", f"{label}: host has {fresh['cpu_count']} "
                                 f"core(s); the {required:.2f}x floor needs "
                                 f">= {floor['min_cores']} cores"))
        else:
            measured = fresh[num] / fresh[den]
            rows.append(("ok" if measured >= required else "FAIL",
                         f"{label}: {measured:.2f}x measured vs "
                         f"{required:.2f}x required"))
    return rows


def main(baseline_path=BASELINE, fresh_path=FRESH) -> int:
    """Print every row; 1 if any failed or there are no fresh results."""
    if not fresh_path.exists():
        print(f"no fresh results at {fresh_path}; run `make bench-gate`")
        return 1
    rows = check(json.loads(baseline_path.read_text()),
                 json.loads(fresh_path.read_text()))
    for status, line in rows:
        print(f"{status:>4}  {line}")
    if any(status == "FAIL" for status, _ in rows):
        print("benchmark gate FAILED")
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
