"""Tests of the pipeline benchmark's own arithmetic, plus engine smoke runs.

    PYTHONPATH=src python -m pytest benchmarks/pipeline/test_pipeline_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from compare import compare, digest_mismatches, quartiles
from spans import END, PARENT, START, Tracer, layer_self_times, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _span(name, start, end, parent, experiment=0):
    return [name, start, end, parent, experiment]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("experiment", 0.0, 10.0, -1),
        _span("engine.run", 1.0, 9.0, 0),
        _span("core.gate", 2.0, 3.0, 1),
        _span("marking.decode", 3.0, 5.0, 1),
        _span("marking.identify", 9.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([1.5, 5.0, 1.0, 2.0, 0.5])
    # Self times partition the root span.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_layer_self_times_sum_per_experiment_and_name():
    spans = [
        _span("experiment", 0.0, 4.0, -1, 1),
        _span("core.gate", 1.0, 2.0, 0, 1),
        _span("core.gate", 2.0, 2.5, 0, 1),
        _span("experiment", 5.0, 6.0, -1, 2),
    ]
    layers = layer_self_times(spans)
    assert layers[1] == pytest.approx({"experiment": 2.5, "core.gate": 1.5})
    assert layers[2] == pytest.approx({"experiment": 1.0})


def test_tracer_nests_spans_and_closes_them_after_an_exception():
    tracer = Tracer()
    with tracer.span("experiment"):
        with pytest.raises(RuntimeError):
            with tracer.span("engine.run"):
                tracer.begin("core.gate")  # left open by the exception
                raise RuntimeError
        with tracer.span("marking.identify"):
            pass
    names = [span[0] for span in tracer.spans]
    assert names == ["experiment", "engine.run", "core.gate", "marking.identify"]
    assert [span[PARENT] for span in tracer.spans] == [-1, 0, 1, 0]
    assert all(span[END] >= span[START] for span in tracer.spans[:2])


def test_run_counts_each_failed_experiment_once():
    from run import Run

    run = Run()
    assert run.attempt("a", lambda: 1 / 0) is None
    run.check(False, "a", "a second failed check on the same experiment")
    run.check(True, "b", "passes")
    run.check(False, "c", "fails")
    assert run.attempted == 1
    assert sorted(run.failures) == ["a", "c"]
    assert run.failures["a"][0].startswith("ZeroDivisionError")


def test_quartiles_match_statistics_quantiles():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


LOWER = {"name": "experiment_s", "unit": "s", "better": "lower", "bound": 0.1}
HIGHER = {"name": "packets_per_s", "unit": "pkt/s", "better": "higher",
          "bound": 0.1}
LAYER = {"name": "engine.run_self_s", "unit": "s", "better": "lower"}


def _verdict(metric, base, new):
    rows = compare({"w": {metric["name"]: base}}, {"w": {metric["name"]: new}},
                   [metric])
    assert len(rows) == 1
    return rows[0]["verdict"]


def test_compare_verdicts_follow_bound_and_direction():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert _verdict(LOWER, steady, [1.05, 1.06, 1.04, 1.05, 1.05]) == "ok"
    assert _verdict(LOWER, steady, [1.20, 1.21, 1.19, 1.20, 1.22]) == "regressed"
    assert _verdict(HIGHER, steady, [1.20, 1.21, 1.19, 1.20, 1.22]) == "ok"
    assert _verdict(HIGHER, steady, [0.80, 0.81, 0.79, 0.80, 0.82]) == "regressed"


def test_compare_marks_wide_spread_unresolved_unless_all_runs_better():
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert _verdict(LOWER, noisy, [1.0, 1.3, 0.7, 1.2, 0.8]) == "unresolved"
    assert _verdict(LOWER, noisy, [0.3, 0.5, 0.6, 0.4, 0.65]) == "better"


def test_compare_reports_host_shift_without_changing_the_verdict():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    slower = [1.30, 1.31, 1.29, 1.30, 1.32]
    base = {"w": {"experiment_rel": steady, "host_ref_s": [0.125] * 5}}
    new = {"w": {"experiment_rel": slower, "host_ref_s": [0.150] * 5}}
    metric = dict(LOWER, name="experiment_rel", unit="ref")
    [row] = compare(base, new, [metric])
    assert row["host_shift"] == pytest.approx(0.2)
    assert row["verdict"] == "regressed"


def test_compare_reports_layer_metrics_without_verdict():
    assert _verdict(LAYER, [1.0, 1.0], [2.0, 2.0]) == "-"
    assert compare({"a": {}}, {"b": {}}, [LOWER]) == []


def test_digest_mismatches_only_for_shared_runs():
    base = {("w", 1): "aa", ("w", 2): "bb"}
    new = {("w", 1): "aa", ("w", 2): "cc", ("w", 3): "dd"}
    assert digest_mismatches(base, new) == [("w", 2)]


def test_benchmark_json_matches_workloads_and_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/pipeline"]
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload,trace", [
    ("a3-sweep", 0),                 # exact engine, end-to-end metrics
    ("a3-sweep", 1),                 # exact engine
    ("flood-torus64-batched", 1),    # batched engine, checked against sharded
])
def test_replica_path_smoke(workload, trace):
    """One rep per engine: every check passes, every metric is there."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--reps", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    line = json.loads(out.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    assert all(m["value"] > 0 for m in line["metrics"].values()
               if m["unit"] in ("s", "ref", "pkt/ref", "MB"))
    if trace:
        assert line["metrics"]["trace.coverage_frac"]["value"] >= 0.95
