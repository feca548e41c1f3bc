"""Unit tests for the benchmark gate in benchmarks/gate.py.

The gate decides whether CI fails, so its decision logic is tested directly:
``check`` is pure in (baseline, fresh) and imported here via importlib
(``benchmarks/`` is deliberately not a package). Tests that loop over the
committed ``benchmarks/BENCH.json`` cover every stored bound and floor,
victim decode included.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "gate", Path(__file__).parent.parent / "benchmarks" / "gate.py")
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

BASELINE = json.loads(gate.BASELINE.read_text())
SHARDED = "sharded/torus64_flood/packets_per_sec"
SHARDED_FLOOR = next(floor for floor in BASELINE["floors"]
                     if floor["numerator"] == SHARDED)


def _passing_fresh(cores=8):
    """Every baseline metric at its value and every floor cleared 2x."""
    fresh = {key: entry["value"]
             for key, entry in BASELINE["metrics"].items()}
    for floor in BASELINE["floors"]:
        fresh.setdefault(floor["denominator"],
                         fresh[floor["numerator"]] / (2 * floor["ratio"]))
    fresh["cpu_count"] = cores
    return fresh


def _failed(baseline, fresh):
    """The labels of the rows ``check`` fails."""
    return [line.split(":")[0] for status, line in gate.check(baseline, fresh)
            if status == "FAIL"]


def _label(floor):
    return f"{floor['numerator']} / {floor['denominator']}"


def _only(floor):
    return {"metrics": {}, "floors": [floor]}


def _sharded(pps, batched=100.0, cores=8, base=100.0):
    baseline = {"metrics": {SHARDED: {"value": base, "bound": 0.85}},
                "floors": [SHARDED_FLOOR]}
    fresh = {SHARDED: pps, SHARDED_FLOOR["denominator"]: batched,
             "cpu_count": cores}
    return baseline, fresh


class TestExactGate:
    def test_passes_at_baseline(self):
        assert _failed(BASELINE, _passing_fresh()) == []

    def test_faster_never_fails(self):
        fresh = {key: value * 10 for key, value in _passing_fresh().items()}
        assert _failed(BASELINE, fresh) == []

    def test_fails_below_tolerance(self):
        """Each committed metric passes at its bound, fails just below."""
        for key, entry in BASELINE["metrics"].items():
            fresh = _passing_fresh()
            fresh[key] = entry["value"] * entry["bound"]
            assert _failed(BASELINE, fresh) == [], key
            fresh[key] = math.nextafter(fresh[key], 0.0)
            assert _failed(BASELINE, fresh) == [key]

    def test_tolerance_is_honored(self):
        """The same drop passes or fails purely on the stored bound."""
        fresh = {"exact/events_per_sec": 800.0}
        for bound, failed in ((0.75, []), (0.85, ["exact/events_per_sec"])):
            baseline = {"metrics": {"exact/events_per_sec":
                                    {"value": 1000.0, "bound": bound}},
                        "floors": []}
            assert _failed(baseline, fresh) == failed


class TestFloor:
    def test_clears_floor(self):
        """Each committed floor passes at exactly its ratio."""
        for floor in BASELINE["floors"]:
            fresh = {floor["numerator"]: floor["ratio"],
                     floor["denominator"]: 1.0, "cpu_count": 8}
            assert _failed(_only(floor), fresh) == [], _label(floor)

    def test_below_floor_fails(self):
        for floor in BASELINE["floors"]:
            fresh = {floor["numerator"]: math.nextafter(floor["ratio"], 0.0),
                     floor["denominator"]: 1.0, "cpu_count": 8}
            assert _failed(_only(floor), fresh) == [_label(floor)]

    def test_tolerance_scales_floor(self):
        """The committed bounds are CI's: 10x and 2x floors scaled by 0.85,
        0.85 on fabric throughput, 0.7 and an unscaled 2x on victim decode."""
        bounds = {key: entry["bound"]
                  for key, entry in BASELINE["metrics"].items()}
        assert bounds == {
            "exact/events_per_sec": 0.85,
            "exact/packets_per_sec": 0.85,
            "batched/matched/packets_per_sec": 0.85,
            "batched/torus64/packets_per_sec": 0.85,
            SHARDED: 0.85,
            "victim/ddpm/batched_marks_per_sec": 0.7,
            "victim/ppm-full/batched_marks_per_sec": 0.7,
            "victim/dpm/batched_marks_per_sec": 0.7,
        }
        floors = {_label(floor): (floor["ratio"], floor.get("min_cores"))
                  for floor in BASELINE["floors"]}
        victim = {f"victim/{s}/batched_marks_per_sec / "
                  f"victim/{s}/per_packet_marks_per_sec": (2.0, None)
                  for s in ("ddpm", "ppm-full", "dpm")}
        assert floors == {
            "batched/matched/packets_per_sec / exact/packets_per_sec":
                (8.5, None),
            f"{SHARDED} / sharded/torus64_flood/batched_packets_per_sec":
                (1.7, 4),
            **victim,
        }

    def test_prints_measured_vs_floor_ratio(self, tmp_path, capsys):
        floor = BASELINE["floors"][0]
        baseline, fresh = tmp_path / "base.json", tmp_path / "fresh.json"
        baseline.write_text(json.dumps(_only(floor)))
        fresh.write_text(json.dumps({floor["numerator"]: 2000.0,
                                     floor["denominator"]: 100.0}))
        assert gate.main(baseline, fresh) == 0
        out = capsys.readouterr().out
        assert "20.00x measured vs 8.50x required" in out
        assert "benchmark gate passed" in out


class TestShardedGate:
    def test_passes_with_speedup_and_cores(self):
        assert _failed(*_sharded(pps=250.0)) == []

    def test_floor_enforced_when_cores_suffice(self):
        # 1.5x speedup on an 8-core host: below the 1.7x floor -> fail.
        assert _failed(*_sharded(pps=150.0)) == [_label(SHARDED_FLOOR)]

    def test_floor_skipped_on_small_hosts(self):
        """cores < min_cores: the parallel-speedup floor is meaningless, so
        the gate skips it loudly instead of failing machine-dependently."""
        rows = gate.check(*_sharded(pps=90.0, cores=1))
        assert [status for status, _ in rows] == ["ok", "SKIP"]
        assert "host has 1 core(s)" in rows[1][1]
        assert ">= 4 cores" in rows[1][1]

    def test_regression_still_checked_on_small_hosts(self):
        """Skipping the floor does not skip the baseline comparison."""
        assert _failed(*_sharded(pps=40.0, cores=1)) == [SHARDED]

    def test_missing_workload_fails(self):
        baseline, fresh = _sharded(pps=250.0)
        del fresh[SHARDED]
        assert _failed(baseline, fresh) == [SHARDED, _label(SHARDED_FLOOR)]

    def test_tolerance_scales_sharded_floor(self):
        # 1.8x clears the committed 2x * 0.85 = 1.7x floor at 4 cores.
        assert _failed(*_sharded(pps=180.0, cores=4)) == []
        assert _failed(*_sharded(pps=160.0, cores=4)) != []


class TestBatchedGate:
    def test_floor_uses_tolerance(self):
        """The 8.5x floor divides by the exact packets/s of the same run."""
        label = "batched/matched/packets_per_sec / exact/packets_per_sec"
        fresh = _passing_fresh()
        matched = fresh["batched/matched/packets_per_sec"]
        fresh["exact/packets_per_sec"] = matched / 8.4
        assert _failed(BASELINE, fresh) == [label]
        fresh["exact/packets_per_sec"] = matched / 8.6
        assert _failed(BASELINE, fresh) == []


_INPUTS = sorted({key for floor in BASELINE["floors"]
                  for key in (floor["numerator"], floor["denominator"])}
                 | set(BASELINE["metrics"]) | {"cpu_count"})


class TestMain:
    def test_fails_without_fresh_results(self, tmp_path, capsys):
        """A checkout where no bench ran must not pass on stale numbers."""
        assert gate.main(gate.BASELINE, tmp_path / "BENCH.json") == 1
        assert "no fresh results" in capsys.readouterr().out

    @pytest.mark.parametrize("key", _INPUTS)
    def test_fails_when_fresh_lacks_an_input(self, tmp_path, capsys, key):
        fresh = _passing_fresh()
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(fresh))
        assert gate.main(gate.BASELINE, path) == 0
        del fresh[key]
        path.write_text(json.dumps(fresh))
        assert gate.main(gate.BASELINE, path) == 1
        out = capsys.readouterr().out
        assert f"{key}: missing" in out or f"lack {key}" in out
