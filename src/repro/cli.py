"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``
    Print the paper's Tables 1-3 as regenerated by the analysis module.
``demo``
    Run the quickstart scenario (spoofed flood + DDPM identification) and
    print the outcome.
``experiment``
    Run one configurable identification experiment and print the flat
    result record; ``--seeds`` replicates and reports mean +/- CI,
    ``--jobs`` fans the replication over worker processes, and
    ``--cache-dir`` reuses previously simulated results. Robustness knobs:
    ``--faults`` arms a fault campaign (inline JSON or a file),
    ``--fault-rate`` is shorthand for seeded-random link flaps,
    ``--timeout``/``--retries`` harden the runner against wedged or
    crashing jobs. Attack scenarios: ``--attack`` selects a registered
    attack kind (``--attack-params`` tunes it with inline JSON or a file),
    replacing the flat flood knobs with a declarative campaign.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import registry
from repro.analysis.scalability import render_table, table1, table2, table3
from repro.core.config import (
    ExperimentConfig,
    MarkingSpec,
    RoutingSpec,
    SelectionSpec,
    TopologySpec,
)
from repro.core.experiment import run_identification_experiment
from repro.core.replication import summarize_metric
from repro.engine.contract import ENGINES, refused_features
from repro.util.tables import TextTable

__all__ = ["main", "build_parser"]

# Derived from the registries: registering a new scheme puts it on the CLI.
ROUTING_CHOICES = list(registry.ROUTING.names())
# 'none' is a valid config value but a no-op experiment (nothing to identify).
MARKING_CHOICES = [name for name in registry.MARKING.names() if name != "none"]
TOPOLOGY_CHOICES = list(registry.TOPOLOGY.names())
ATTACK_CHOICES = sorted(registry.ATTACKS.names())


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DDPM cluster-interconnect DDoS source identification "
                    "(reproduction of Lee, Kim & Lee, ICPP 2004 Workshops)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print the paper's Tables 1-3")

    demo = sub.add_parser("demo", help="run the quickstart DDoS scenario")
    demo.add_argument("--seed", type=int, default=2026)

    exp = sub.add_parser("experiment", help="run one identification experiment")
    exp.add_argument("--topology", choices=TOPOLOGY_CHOICES, default="mesh")
    exp.add_argument("--dims", type=int, nargs="+", default=[6, 6],
                     help="dimension sizes (one value = hypercube order)")
    exp.add_argument("--routing", choices=ROUTING_CHOICES,
                     default="fully-adaptive")
    exp.add_argument("--marking", choices=MARKING_CHOICES, default="ddpm")
    exp.add_argument("--probability", type=float, default=0.1,
                     help="marking probability for the PPM family")
    exp.add_argument("--attackers", type=int, default=3)
    exp.add_argument("--rate", type=float, default=40.0,
                     help="attack packets per time unit per attacker")
    exp.add_argument("--background", type=float, default=2.0)
    exp.add_argument("--duration", type=float, default=2.0)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--seeds", type=int, nargs="*", default=None,
                     help="replicate over these seeds and report mean +/- CI")
    exp.add_argument("--jobs", type=int, default=1,
                     help="worker processes for --seeds replication "
                          "(1 = in-process, bit-identical to the serial path)")
    exp.add_argument("--cache-dir", default=None,
                     help="reuse simulated results from this directory "
                          "(keyed by config hash + code version)")
    exp.add_argument("--attack", choices=ATTACK_CHOICES, default=None,
                     help="declarative attack scenario kind (replaces the "
                          "flat --attackers/--rate flood; see "
                          "repro.attack.scenario)")
    exp.add_argument("--attack-params", default=None, metavar="JSON|FILE",
                     help="parameters for --attack: inline JSON or a path "
                          "to a JSON file (keys are the spec's to_dict "
                          "fields); without --attack, a full campaign "
                          "({'specs': [...]} or a bare spec list)")
    exp.add_argument("--faults", default=None, metavar="JSON|FILE",
                     help="fault campaign: inline JSON or a path to a JSON "
                          "file ({'specs': [...]} or a bare spec list)")
    exp.add_argument("--fault-rate", type=float, default=None, metavar="P",
                     help="shorthand campaign: every link independently "
                          "flaps with probability P at a seeded-random time")
    exp.add_argument("--fault-downtime", type=float, default=None,
                     metavar="T",
                     help="mean downtime for --fault-rate flaps "
                          "(default: links stay down for the rest of the run)")
    exp.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                     help="per-run wall-clock watchdog; a wedged simulation "
                          "terminates with a structured report instead of "
                          "hanging")
    exp.add_argument("--retries", type=int, default=0,
                     help="extra attempts per failed job in --seeds batches "
                          "(exponential backoff)")
    exp.add_argument("--profile", action="store_true",
                     help="time every simulation event and print the top-10 "
                          "labels/callsites by cumulative wall-clock time "
                          "(incompatible with --seeds/--cache-dir)")
    exp.add_argument("--engine", choices=ENGINES, default="exact",
                     help="fabric engine; exact is the golden reference. What each "
                          "refuses, wholly or in part (engine matrix: DESIGN.md §12): "
                          + "; ".join(f"{engine}: {', '.join(refused_features(engine))}"
                                      for engine in ENGINES))
    exp.add_argument("--shards", type=int, default=None, metavar="K",
                     help="shard count for --engine sharded (default: the "
                          "engine's built-in default)")
    return parser


def _cmd_tables() -> int:
    print(render_table(table1(), "Table 1 - simple PPM"))
    print()
    print(render_table(table2(), "Table 2 - bit-difference PPM"))
    print()
    print(render_table(table3(), "Table 3 - DDPM"))
    return 0


def _cmd_demo(seed: int) -> int:
    from repro import Cluster, DdpmScheme, Torus
    from repro.routing import FullyAdaptiveRouter

    cluster = Cluster(Torus((8, 8)), FullyAdaptiveRouter(),
                      marking=DdpmScheme(), seed=seed)
    victim = cluster.default_victim()
    pipeline = cluster.attach_pipeline(victim)
    truth = cluster.launch_ddos(victim=victim, num_attackers=3,
                                attack_rate_per_node=50.0, duration=2.0)
    cluster.run()
    suspects = pipeline.suspects()
    print(f"victim: {victim}; true attackers: {sorted(truth.attackers)}")
    print(f"DDPM suspects: {sorted(suspects)} "
          f"({pipeline.analyzed_packets} packets analyzed)")
    ok = suspects == frozenset(truth.attackers)
    print("exact identification." if ok else "MISMATCH")
    return 0 if ok else 1


def _parse_faults(args: argparse.Namespace):
    """Build the FaultCampaign selected by --faults / --fault-rate (or None)."""
    if args.faults is not None and args.fault_rate is not None:
        raise SystemExit("--faults and --fault-rate are mutually exclusive")
    if args.fault_rate is not None:
        from repro.faults import FaultCampaign, RandomLinkFlapSpec

        return FaultCampaign((RandomLinkFlapSpec(
            probability=args.fault_rate,
            mean_downtime=args.fault_downtime), ))
    if args.faults is None:
        return None
    import json
    import os

    from repro.faults import FaultCampaign

    text = args.faults
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    data = json.loads(text)
    if isinstance(data, list):
        data = {"specs": data}
    return FaultCampaign.from_dict(data)


def _parse_attacks(args: argparse.Namespace):
    """Build the AttackCampaign selected by --attack/--attack-params (or None)."""
    if args.attack is None and args.attack_params is None:
        return None
    import json
    import os

    from repro import registry as reg
    from repro.attack.scenario import AttackCampaign

    data = None
    if args.attack_params is not None:
        text = args.attack_params
        if os.path.exists(text):
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        data = json.loads(text)
    if args.attack is not None:
        params = dict(data) if isinstance(data, dict) else {}
        params["kind"] = args.attack
        spec = reg.ATTACKS.create(args.attack, params)
        return AttackCampaign((spec,))
    if isinstance(data, list):
        data = {"specs": data}
    return AttackCampaign.from_dict(data)


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.shards is not None and args.engine != "sharded":
        raise SystemExit("--shards requires --engine sharded")
    faults = _parse_faults(args)
    attacks = _parse_attacks(args)
    config = ExperimentConfig(
        topology=TopologySpec(args.topology, tuple(args.dims)),
        routing=RoutingSpec(args.routing),
        marking=MarkingSpec(args.marking, probability=args.probability),
        selection=SelectionSpec("first" if args.routing in ("xy", "dor")
                                else "random"),
        seed=args.seed,
        num_attackers=args.attackers,
        attack_rate_per_node=args.rate,
        background_rate=args.background,
        duration=args.duration,
        faults=faults,
        attacks=attacks,
        engine=args.engine,
        shards=args.shards,
    )
    from repro.runner import ParallelRunner, ResultCache

    if args.profile:
        if args.seeds or args.cache_dir:
            print("--profile profiles a single in-process run; "
                  "drop --seeds/--cache-dir", file=sys.stderr)
            return 2
        from repro.engine.profile import EventProfiler

        profiler = EventProfiler()
        result = run_identification_experiment(config, profile=profiler)
        for key, value in result.to_record().items():
            print(f"{key:>18}: {value}")
        print()
        print(profiler.report(top=10))
        return 0

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    if args.seeds:
        runner = ParallelRunner(n_jobs=args.jobs, cache=cache,
                                timeout=args.timeout, retries=args.retries)
        report = runner.run_seeds(config, args.seeds)
        ok = report.ok_results()
        if len(ok) >= 2:
            table = TextTable(["metric", "n", "mean", "95% CI"])
            for metric in ("precision", "recall", "f1", "num_suspects"):
                summary = summarize_metric(ok, metric)
                table.add_row([metric, summary.n, f"{summary.mean:.3f}",
                               f"[{summary.ci_low:.3f}, {summary.ci_high:.3f}]"])
            print(table.render())
        else:
            print(f"too few successful runs to summarize "
                  f"({len(ok)} of {len(report)})", file=sys.stderr)
        print(report.describe())
        for failure in report.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 0 if report.status == "ok" else 1
    if cache is not None:
        report = ParallelRunner(cache=cache, timeout=args.timeout,
                                retries=args.retries).run_batch([config])
        result = report.results[0]
        if result is None:
            print(f"FAILED {report.failures[0]}", file=sys.stderr)
            return 1
    else:
        watchdog = None
        if args.timeout is not None:
            from repro.engine.watchdog import Watchdog

            watchdog = Watchdog(wall_clock_limit=args.timeout)
        result = run_identification_experiment(config, watchdog=watchdog)
    for key, value in result.to_record().items():
        print(f"{key:>18}: {value}")
    if cache is not None:
        print(report.describe())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "tables":
        return _cmd_tables()
    if args.command == "demo":
        return _cmd_demo(args.seed)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
