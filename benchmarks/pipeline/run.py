#!/usr/bin/env python3
"""End-to-end pipeline benchmark: paper experiments on every engine.

Run from the repository root::

    python3 benchmarks/pipeline/run.py [--seed S] [--seconds N]
    python3 benchmarks/pipeline/run.py --workload W --seed S --seconds N --trace 0|1

With ``--workload`` one workload runs in this process for ``--seconds`` of
timed work. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics named in BENCHMARK.json with ``--trace 0``, its per-layer metrics
with ``--trace 1``. The full record goes to ``results/`` and is appended to
``results/runs.jsonl``, the input of ``compare.py``.

Without ``--workload`` every workload runs twice (untraced, then traced),
each time in a fresh child process. The command prints every metric with
its unit, writes ``results/result.json`` and appends one line to
``history.jsonl``.

The load is a closed loop with one client: experiments run back to back.
Between reps, about every two seconds, a fixed reference task reads the
host's speed (``host_ref_s``), and it is read again around each set-up
probe; ``setup_s`` is the probes' wall time scaled to a host that reads
``REF_NOMINAL_S``. A new rep starts only while the timed work (reps
and reference readings), including the rep about to start, is expected to
stay within ``--seconds``; an untraced run makes at
least the workload's ``min_reps`` reps, a traced run at least
``TRACED_MIN_REPS``. ``--reps N`` fixes the number of timed reps instead
(for smoke tests). A failed check makes the command exit with status 1.
See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
HISTORY = HERE / "history.jsonl"

#: fresh processes timed for setup_s
SETUP_PROBES = 7
#: timed reps a traced run makes at least (each runs both sides)
TRACED_MIN_REPS = 2
#: wall-clock limit handed to every experiment's watchdog
WATCHDOG_S = 120.0
#: layer self times must cover this share of the traced experiment time
MIN_COVERAGE = 0.95
#: rounds of host_ref_s(), each one pure-Python part and one numpy part
REF_ROUNDS = 12
#: heap pushes of a pure-Python part
REF_ITERATIONS = 5000
#: array length of a numpy part; small (1.5 MB of temporaries), so the
#: reference never sets the peak RSS
REF_ARRAY = 50000
#: timed work between two host_ref_s() readings, at least (one rep at most)
REF_EVERY_S = 2.0
#: the host_ref_s() reading setup_s is scaled to: the typical reading on
#: the reference host (2-core x86_64 VM, Python 3.11.7, numpy 2.4.6)
REF_NOMINAL_S = 0.14
#: the untraced numbers each line of history.jsonl keeps per workload
HISTORY_METRICS = ("experiment_rel", "packets_per_ref", "experiment_s",
                   "packets_per_s", "setup_s", "setup_raw_s", "peak_rss_mb",
                   "first_suspect_sim_s", "f1", "failed_frac", "host_ref_s",
                   "wall_s")


def load_spec() -> Dict[str, Any]:
    """BENCHMARK.json: the metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_revision() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(seed: int) -> Dict[str, Any]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "seed": seed,
    }


def take_peak_rss_kb() -> int:
    """This process's max RSS (KiB) since the last call; starts a new max.

    Each timed side of a rep is bracketed by two calls, so the peak counts
    the experiments and not the untimed prefix or the host reference
    readings. Writing 5 to ``/proc/self/clear_refs`` resets the mark on
    Linux; elsewhere the mark runs from process start.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/clear_refs", "w") as out:
            out.write("5")
    except OSError:
        pass
    return peak


def probe_setup(workload: str, seed: int) -> Tuple[float, float]:
    """One set-up probe in a fresh interpreter.

    Returns its wall time and the mean of the host_ref_s() readings taken
    just before and just after it.
    """
    before = host_ref_s()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    after = host_ref_s()
    return float(out.stdout.strip().splitlines()[-1]), (before + after) / 2


@functools.lru_cache(maxsize=None)
def _ref_arrays():
    """The fixed inputs of host_ref_s()'s numpy half."""
    import numpy

    rng = numpy.random.default_rng(0)
    values = rng.integers(0, 1 << 30, REF_ARRAY)
    keys = numpy.sort(rng.integers(0, 1 << 30, REF_ARRAY // 20))
    return values, keys


def host_ref_s() -> float:
    """Wall time of a fixed reference task that runs no repository code.

    It reads how fast this host executes the two kinds of work the engines
    do at this moment: a heap-and-dict loop in pure Python (the exact
    engine's kind) and a numpy sort, lookup and histogram (the batched
    engine's kind). The garbage collector is off while it runs, so
    the objects the program left alive do not slow it. The timed loop
    reads it between reps, and ``experiment_rel`` divides each rep's time
    by the mean of the two readings around it.
    """
    import numpy

    values, keys = _ref_arrays()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REF_ROUNDS):
            heap: List[Any] = []
            counts: Dict[int, int] = {}
            for i in range(REF_ITERATIONS):
                heapq.heappush(heap, ((i * 7919) % 100003, i))
                counts[i & 1023] = counts.get(i & 1023, 0) + 1
            while heap:
                heapq.heappop(heap)
            order = numpy.argsort(values, kind="stable")
            numpy.bincount(numpy.searchsorted(keys, values[order]))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Run:
    """Counts experiments attempted, and failures per experiment label."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, List[str]] = {}

    def attempt(self, label: str, fn, *args):
        """Call ``fn``; an exception fails the experiment ``label``."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            self.check(False, label, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, ok: bool, label: str, message: str) -> None:
        if not ok:
            self.failures.setdefault(label, []).append(message)


def run_prefix(run: Run, workload, seed: int, check_reps: int):
    """Untimed traced-replica runs of the first ``check_reps`` reps.

    They are the warm-up, and they give the first-suspect times and the sim
    digest. Returns (outcomes per rep, first-suspect times, sim digest).
    """
    from replica import digest_row, first_suspect, run_replica
    from spans import Tracer

    prefix: List[List[Any]] = []
    first_s: List[float] = []
    digest_rows: List[Any] = []
    for k in range(check_reps):
        row = []
        for i, config in enumerate(workload.configs(seed + k)):
            label = f"seed {seed + k} cell {i} (replica)"
            outcome = run.attempt(label, run_replica, config, Tracer(),
                                  WATCHDOG_S)
            row.append(outcome)
            if outcome is None:
                continue
            sim_s, packets = first_suspect(config, outcome)
            first_s.append(sim_s)
            digest_rows.append(digest_row(seed + k, outcome, sim_s))
            if config.marking.name == "ddpm":
                run.check(packets == 1, label, f"DDPM needed {packets} "
                          "attack packets to suspect a true attacker")
        prefix.append(row)
    digest = hashlib.sha256(json.dumps(digest_rows).encode()).hexdigest()[:16]
    return prefix, first_s, digest


def check_reference(run: Run, workload, seed: int, prefix: List[List[Any]],
                    real) -> None:
    """Each prefix outcome must equal the reference engine's result.

    Runs after the peak-RSS reading, so the reference engine's footprint
    is not counted in the workload's memory.
    """
    fields = dict(workload.reference)
    engine = fields["engine"]
    for k, row in enumerate(prefix):
        for i, (config, outcome) in enumerate(zip(workload.configs(seed + k),
                                                  row)):
            if outcome is None:
                continue
            label = f"seed {seed + k} cell {i} ({engine})"
            reference = run.attempt(label, real,
                                    dataclasses.replace(config, **fields))
            run.check(reference is None or outcome.matches(reference),
                      label, f"{config.engine} differs from {engine}")


def write_trace(workload, seed: int, spans: List[list]) -> None:
    """Spans to results/trace-<workload>.json, in seconds from the first."""
    from spans import COLUMNS, START

    origin = spans[0][START] if spans else 0.0
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace-{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "columns": list(COLUMNS),
        "spans": [[name, round(start - origin, 7), round(end - origin, 7),
                   parent, experiment]
                  for name, start, end, parent, experiment in spans],
    }))


def measure(workload, seed: int, seconds: float, traced: bool,
            reps: Optional[int]) -> Dict[str, Any]:
    """Run one workload; returns the full result record."""
    from repro.core.experiment import run_identification_experiment
    from repro.engine.watchdog import Watchdog

    from replica import run_replica
    from spans import Tracer, layer_self_times

    started = time.perf_counter()
    run = Run()

    def real(config):
        return run_identification_experiment(
            config, watchdog=Watchdog(wall_clock_limit=WATCHDOG_S))

    f1_reps = workload.min_reps if reps is None else reps
    if reps is not None:
        floor = max(reps, 1)
    else:
        floor = TRACED_MIN_REPS if traced else workload.min_reps
    check_reps = min(workload.check_reps, floor)

    prefix, first_s, sim_digest = run_prefix(run, workload, seed, check_reps)

    tracer = Tracer()
    samples: List[Dict[str, Any]] = []
    # host_ref_s() readings: before the first rep, then after the rep that
    # brings the timed work since the last reading to REF_EVERY_S, and
    # after the last rep. Each rep gets the mean of the two around it.
    refs: List[float] = [host_ref_s()]
    waiting: List[Dict[str, Any]] = []
    since = 0.0

    def read_ref() -> float:
        refs.append(host_ref_s())
        for rep in waiting:
            rep["ref_s"] = (refs[-2] + refs[-1]) / 2
        waiting.clear()
        return refs[-1]

    f1s: List[float] = []
    peaks: List[int] = []
    setup: List[Tuple[float, float]] = []
    probes = 0 if traced else SETUP_PROBES
    busy = refs[0]
    k = 0
    # Past the floor, start a rep only if the mean rep so far says the
    # timed work will still be within ``seconds`` after it.
    while k < floor or (reps is None and busy * (k + 1) / k <= seconds):
        rep_seed = seed + k
        configs = workload.configs(rep_seed)
        sample: Dict[str, Any] = {"cells": len(configs), "real_s": 0.0,
                                  "traced_s": 0.0, "ids": []}

        def timed_real():
            gc.collect()
            take_peak_rss_kb()
            results = []
            for i, config in enumerate(configs):
                t0 = time.perf_counter()
                results.append(run.attempt(f"seed {rep_seed} cell {i}", real,
                                           config))
                sample["real_s"] += time.perf_counter() - t0
            peaks.append(take_peak_rss_kb())
            return results

        def timed_replica():
            gc.collect()
            take_peak_rss_kb()
            outcomes = []
            for i, config in enumerate(configs):
                tracer.experiment += 1
                sample["ids"].append(tracer.experiment)
                t0 = time.perf_counter()
                outcomes.append(run.attempt(f"seed {rep_seed} cell {i} (traced)",
                                            run_replica, config, tracer,
                                            WATCHDOG_S))
                sample["traced_s"] += time.perf_counter() - t0
            peaks.append(take_peak_rss_kb())
            return outcomes

        # Traced reps alternate which side runs first.
        if traced and k % 2:
            outcomes = timed_replica()
            results = timed_real()
        else:
            results = timed_real()
            outcomes = timed_replica() if traced else None
        waiting.append(sample)
        busy += sample["real_s"] + sample["traced_s"]
        since += sample["real_s"] + sample["traced_s"]
        if since >= REF_EVERY_S:
            busy += read_ref()
            since = 0.0
        # Set-up probes are spread over the run, one each time the timed
        # work passes another 1/SETUP_PROBES of ``seconds``: probes a few
        # seconds apart land in the same slow or fast stretch of the host.
        if len(setup) < probes and busy >= len(setup) * seconds / probes:
            setup.append(probe_setup(workload.name, seed))
        if outcomes is None and k < check_reps:
            outcomes = prefix[k]
        for i, result in enumerate(results):
            if result is None:
                continue
            if k < f1_reps:
                f1s.append(result.score.f1)
            label = f"seed {rep_seed} cell {i}"
            if configs[i].marking.name == "ddpm":
                run.check(result.score.f1 == 1.0, label,
                          f"DDPM F1 {result.score.f1}")
            if outcomes is not None and outcomes[i] is not None:
                run.check(outcomes[i].matches(result), label,
                          "replica differs from run_identification_experiment")
        if None not in results and (not traced or None not in outcomes):
            sample["delivered"] = sum(r.packets_delivered for r in results)
            sample["outcomes"] = outcomes
            samples.append(sample)
        k += 1
    if waiting:
        read_ref()
    while len(setup) < probes:
        setup.append(probe_setup(workload.name, seed))

    values: Dict[str, float] = {"peak_rss_mb": max(peaks) / 1024.0}
    if workload.reference:
        check_reference(run, workload, seed, prefix, real)
    if setup:
        values["setup_s"] = statistics.median(
            probe_s * REF_NOMINAL_S / ref_s for probe_s, ref_s in setup)
        values["setup_raw_s"] = statistics.median(
            probe_s for probe_s, _ in setup)
    values["host_ref_s"] = statistics.median(refs)
    if samples:
        values["experiment_s"] = statistics.median(
            s["real_s"] / s["cells"] for s in samples)
        values["packets_per_s"] = statistics.median(
            s["delivered"] / s["real_s"] for s in samples)
        values["experiment_rel"] = statistics.median(
            s["real_s"] / s["cells"] / s["ref_s"] for s in samples)
        values["packets_per_ref"] = statistics.median(
            s["delivered"] * s["ref_s"] / s["real_s"] for s in samples)
    if f1s:
        values["f1"] = statistics.fmean(f1s)
    if first_s:
        values["first_suspect_sim_s"] = statistics.median(first_s)

    if traced:
        values.update(layer_metrics(samples, layer_self_times(tracer.spans)))
        coverage = values.get("trace.coverage_frac", 0.0)
        run.check(coverage >= MIN_COVERAGE, "trace",
                  f"layer self times cover {coverage:.3f} of the traced "
                  f"experiment time (< {MIN_COVERAGE})")
        write_trace(workload, seed, tracer.spans)

    run.check(bool(samples), "run", "no rep completed")
    failed = len(run.failures)
    values["failed_frac"] = failed / max(run.attempted, 1)
    values["timed_s"] = busy
    values["wall_s"] = time.perf_counter() - started
    return {
        "workload": workload.name,
        "trace": int(traced),
        "seconds": seconds,
        "samples": len(samples),
        "rep_s": [s["real_s"] for s in samples],
        "setup_samples": setup,
        "attempted": run.attempted,
        "failed": failed,
        "failures": [f"{label}: {message}"
                     for label, messages in run.failures.items()
                     for message in messages],
        "sim_digest": sim_digest,
        "values": values,
        "meta": run_metadata(seed),
    }


def layer_metrics(samples: List[Dict[str, Any]],
                  self_s: Dict[int, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics: medians over reps of each rep's per-cell means."""
    per_rep: List[Dict[str, float]] = []
    for sample in samples:
        outcomes = sample["outcomes"]
        cells = len(outcomes)
        ids = sample["ids"]

        def total(name: str) -> float:
            return sum(self_s.get(i, {}).get(name, 0.0) for i in ids)

        def each(attr: str) -> float:
            return float(sum(getattr(o, attr) for o in outcomes))

        run_self = total("engine.run")
        decode = total("marking.decode")
        root_self = total("experiment")
        traced = sum(sum(self_s.get(i, {}).values()) for i in ids)
        delivered = each("packets_delivered")
        marks = each("packets_analyzed")
        per_rep.append({
            "core.from_config_s": total("core.from_config") / cells,
            "attack.launch_s": total("attack.launch") / cells,
            "attack.packets": each("launched") / cells,
            "engine.run_self_s": run_self / cells,
            "engine.us_per_delivered": run_self / max(delivered, 1) * 1e6,
            "engine.rounds": each("rounds") / cells,
            "engine.delivered": delivered / cells,
            "engine.dropped": each("packets_dropped") / cells,
            "engine.delivered_frac": delivered / max(each("injected"), 1),
            "core.gate_s": total("core.gate") / cells,
            "core.attack_row_frac": marks / max(each("gate_rows"), 1),
            "marking.victim_setup_s": total("marking.victim_setup") / cells,
            "marking.decode_s": decode / cells,
            "marking.decode_marks": marks / cells,
            "marking.decode_calls": each("decode_calls") / cells,
            "marking.ns_per_mark": decode / max(marks, 1) * 1e9,
            "marking.identify_s": total("marking.identify") / cells,
            "marking.suspects": sum(len(o.suspects) for o in outcomes) / cells,
            "defense.precision": each("precision") / cells,
            "trace.experiment_s": traced / cells,
            "trace.overhead_frac": sample["traced_s"] / sample["real_s"] - 1.0,
            "trace.coverage_frac": 1.0 - root_self / traced,
        })
    if not per_rep:
        return {}
    return {name: statistics.median(rep[name] for rep in per_rep)
            for name in per_rep[0]}


def emit(record: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The result line printed last: the metrics BENCHMARK.json names."""
    wanted = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = {m["name"]: {"value": record["values"][m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in record["values"]}
    correct = not record["failures"] and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def units(spec: Dict[str, Any]) -> Dict[str, str]:
    out = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out.update(experiment_s="s", packets_per_s="pkt/s", setup_raw_s="s",
               failed_frac="ratio", host_ref_s="s", timed_s="s", wall_s="s")
    return out


def run_one(args, spec: Dict[str, Any]) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    record = measure(workload, args.seed, args.seconds, bool(args.trace),
                     args.reps)
    line = emit(record, spec)
    record["metrics"] = line["metrics"]
    unit = units(spec)
    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          f"{record['samples']} reps of {len(workload.cells)} experiment(s), "
          f"sim_digest {record['sim_digest']}")
    for name, value in sorted(record["values"].items()):
        print(f"{name:28s} {value:14.6g} {unit.get(name, '')}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    with open(RESULTS / "runs.jsonl", "a") as runs:
        runs.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args, spec: Dict[str, Any]) -> int:
    """Every workload, untraced then traced, each in a fresh child process."""
    from workloads import WORKLOADS

    status = 0
    records: Dict[str, Dict[str, Any]] = {}
    unit = units(spec)
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.reps is not None:
                cmd += ["--reps", str(args.reps)]
            path = RESULTS / f"{name}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            child = subprocess.run(cmd, capture_output=True, text=True,
                                   timeout=900)
            if child.returncode:
                status = 1
                print(f"# {name} trace {trace} exited {child.returncode}")
                sys.stdout.write(child.stdout[-2000:])
                sys.stderr.write(child.stderr[-4000:])
            if path.exists():
                records[f"{name}/{trace}"] = json.loads(path.read_text())

    print(f"\n{'workload':28s} {'metric':28s} {'value':>14s} unit")
    for key, record in records.items():
        for metric, value in sorted(record["values"].items()):
            print(f"{key:28s} {metric:28s} {value:14.6g} {unit.get(metric, '')}")
    for name in WORKLOADS:
        pair = [records.get(f"{name}/{t}") for t in (0, 1)]
        if None in pair or pair[0]["sim_digest"] != pair[1]["sim_digest"]:
            status = 1
            print(f"# {name}: untraced and traced runs disagree on sim_digest")
        else:
            print(f"# {name}: sim_digest {pair[0]['sim_digest']}, "
                  f"{pair[0]['samples']} untraced / {pair[1]['samples']} traced reps")
        for record in pair:
            if record is not None and record["failures"]:
                status = 1

    meta = run_metadata(args.seed)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "result.json").write_text(json.dumps(
        {"meta": meta, "seconds": args.seconds, "runs": records},
        indent=1) + "\n")
    history = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "meta": meta,
        "seconds": args.seconds,
        "workloads": {
            name: {"sim_digest": record["sim_digest"],
                   "samples": record["samples"],
                   **{k: v for k, v in record["values"].items()
                      if k in HISTORY_METRICS}}
            for name, record in ((key.split("/")[0], rec)
                                 for key, rec in records.items()
                                 if key.endswith("/0"))
        },
    }
    with open(HISTORY, "a") as out:
        out.write(json.dumps(history) + "\n")
    print(f"# wrote {RESULTS / 'result.json'}; appended {HISTORY.name}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed work per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int,
                        help="exact number of timed reps, ignoring --seconds")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
