"""The engine contract table and every refusal raised through it.

One trigger per refused (engine, feature) cell of
``repro.engine.contract.CONTRACT``; each must raise ``EngineUnsupported``
carrying exactly the cell's engine, feature and fallback. A completeness
check ties the trigger set to the table, so a new refused cell without a
trigger fails here. DESIGN.md §12 must hold the table's rendering.
"""

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro import registry
from repro.attack.traffic import UniformRandomPattern, schedule_background_bulk
from repro.cli import build_parser
from repro.core.cluster import Cluster
from repro.core.config import (ExperimentConfig, MarkingSpec, RoutingSpec,
                               SelectionSpec, TopologySpec)
from repro.core.experiment import run_identification_experiment
from repro.engine.contract import CONTRACT, ENGINES, refused_features
from repro.engine.sharded import ShardedEngine
from repro.errors import EngineUnsupported
from repro.faults import (FaultCampaign, LinkFlapSpec, NicStallSpec,
                          PacketFaultSpec, RandomLinkFlapSpec, SwitchCrashSpec)
from repro.marking import DdpmScheme, DpmScheme
from repro.network.fabric import Fabric
from repro.routing import DimensionOrderRouter, ValiantRouter
from repro.routing.selection import FirstCandidatePolicy, SelectionPolicy
from repro.topology import Mesh, Torus

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"


def _noop(*_args):
    return None


class _ScalarOnlyDpm(DpmScheme):
    """Overrides only the scalar hop, so a cohort would run DPM's array hop."""

    name = "dpm-scalar-only"

    def on_hop(self, packet, from_node, to_node):
        super().on_hop(packet, from_node, to_node)


class _InjectOnlyDdpm(DdpmScheme):
    """Overrides only the scalar inject, so a cohort would derive DDPM's
    words through the parent's ``word_array``."""

    name = "ddpm-inject-only"

    def on_inject(self, packet, node):
        super().on_inject(packet, node)


class _LastCandidatePolicy(SelectionPolicy):
    """A selection policy with no vectorized twin."""

    name = "last"

    def choose(self, candidates, current):
        return candidates[-1]


def _cluster(engine, *, router=None, marking=None, mode="serial"):
    """A flooded 4x4 cluster on ``engine`` (serial shards when sharded)."""
    kwargs = {"shards": 2} if engine == "sharded" else {}
    topology = Torus((4, 4)) if router is not None else Mesh((4, 4))
    cluster = Cluster(topology, router or DimensionOrderRouter(),
                      marking=marking or DdpmScheme(), seed=0,
                      engine=engine, **kwargs)
    cluster.fabric.shard_mode = mode
    cluster.fabric.selection = FirstCandidatePolicy()
    cluster.launch_ddos(num_attackers=2, attack_rate_per_node=10.0,
                        duration=0.5)
    return cluster


def _valiant(engine, mode="serial"):
    _cluster(engine, router=ValiantRouter(np.random.default_rng(0)),
             mode=mode).run()


def _scalar_only(engine):
    _cluster(engine, marking=_ScalarOnlyDpm()).run()


def _custom_selection(engine):
    cluster = _cluster(engine)
    cluster.fabric.selection = _LastCandidatePolicy()
    cluster.run()


def _stray_event(engine):
    cluster = _cluster(engine)
    cluster.sim.schedule_call(0.25, _noop, label="stray")
    cluster.run()


def _injection_filter(engine):
    cluster = _cluster(engine)
    cluster.fabric.injection_filter = lambda packet, node: True
    cluster.run()


def _drop_handler(engine):
    _cluster(engine).fabric.add_drop_handler(_noop)


def _link_change_after_run(engine):
    cluster = _cluster(engine)
    cluster.run()
    cluster.fabric.fail_link(0, 1)


def _run_until(engine):
    _cluster(engine).run(until=0.25)


def _capture_after_run(engine):
    cluster = _cluster(engine)
    cluster.run()
    cluster.launch_ddos(num_attackers=2, attack_rate_per_node=10.0,
                        duration=0.5)
    cluster.run()


def _bulk_on_exact(engine):
    schedule_background_bulk(Fabric(Mesh((4, 4)), DimensionOrderRouter()),
                             UniformRandomPattern(), rate=5.0, duration=1.0,
                             rng=np.random.default_rng(0))


_COHORT_TRIGGERS = {
    "stateful-router": _valiant,
    "scalar-only-marking": _scalar_only,
    "selection-without-twin": _custom_selection,
    "discrete-events": _stray_event,
    "per-packet-hooks": _injection_filter,
    "per-packet-observers": _drop_handler,
    "link-change-after-run": _link_change_after_run,
    "run-until": _run_until,
    "capture-after-run": _capture_after_run,
}

#: (engine, feature) -> a call that hits exactly that refusal
TRIGGERS = {
    **{(engine, feature): trigger
       for feature, trigger in _COHORT_TRIGGERS.items()
       for engine in ("batched", "sharded")},
    ("exact", "bulk-injection"): _bulk_on_exact,
}


def test_every_refused_cell_has_a_trigger():
    refused = {(engine, feature)
               for feature, (_, cells) in CONTRACT.items()
               for engine, cell in cells.items() if cell.fallback}
    assert set(TRIGGERS) == refused


@pytest.mark.parametrize("engine,feature", sorted(TRIGGERS),
                         ids=lambda value: value)
def test_refusal_carries_its_cell(engine, feature):
    fallback = CONTRACT[feature][1][engine].fallback
    with pytest.raises(EngineUnsupported) as refused:
        TRIGGERS[engine, feature](engine)
    error = refused.value
    assert (error.engine, error.feature, error.fallback) \
        == (engine, feature, fallback)
    assert f"the {engine} engine refuses" in str(error)
    assert str(error).endswith(f"use engine='{fallback}'")
    # Picklable with its fields, as the parallel runner ships failures home.
    copy = pickle.loads(pickle.dumps(error))
    assert (copy.engine, copy.feature, copy.fallback, str(copy)) \
        == (engine, feature, fallback, str(error))


@pytest.mark.parametrize("engine", ["batched", "sharded"])
def test_a_path_free_word_is_the_twin_of_both_scalar_forms(engine):
    """DDPM's ``word_array`` stands in for both array forms only where
    its own class defines both scalar forms."""
    _cluster(engine).run()  # DdpmScheme itself runs
    with pytest.raises(EngineUnsupported) as refused:
        _cluster(engine, marking=_InjectOnlyDdpm()).run()
    assert refused.value.feature == "scalar-only-marking"
    assert ("defines on_inject in _InjectOnlyDdpm but word_array in "
            "DdpmScheme") in str(refused.value)


@pytest.mark.parametrize("trigger", [_valiant, _custom_selection,
                                     _stray_event, _injection_filter],
                         ids=lambda trigger: trigger.__name__)
def test_sharded_refusals_name_the_sharded_engine(trigger):
    with pytest.raises(EngineUnsupported) as refused:
        trigger("sharded")
    assert refused.value.engine == "sharded"
    assert "the sharded engine refuses" in str(refused.value)
    assert "batched" not in str(refused.value)


def test_no_shard_worker_starts_before_admit(monkeypatch):
    def start_workers(*_args):
        raise AssertionError("a shard worker started on an unadmitted fabric")

    monkeypatch.setattr(ShardedEngine, "_start_workers", start_workers)
    with pytest.raises(EngineUnsupported) as refused:
        _valiant("sharded", mode="process")
    assert refused.value.feature == "stateful-router"


#: one campaign per fault kind, and the contract row that refuses it
FAULT_CASES = {
    "link-flap": (LinkFlapSpec(u=0, v=1, fail_at=0.2), "discrete-events"),
    "random-link-flap": (RandomLinkFlapSpec(probability=0.2),
                         "discrete-events"),
    "switch-crash": (SwitchCrashSpec(node=5, crash_at=0.2),
                     "discrete-events"),
    "nic-stall": (NicStallSpec(node=2, start_at=0.1, end_at=0.3),
                  "per-packet-hooks"),
    "packet": (PacketFaultSpec(mode="drop", probability=0.1),
               "per-packet-hooks"),
}


def test_every_fault_kind_has_a_case():
    assert sorted(FAULT_CASES) == sorted(registry.FAULTS.names())


@pytest.mark.parametrize("engine", ["batched", "sharded"])
@pytest.mark.parametrize("kind", sorted(FAULT_CASES))
def test_fault_campaigns_are_refused_before_any_round(kind, engine):
    spec, feature = FAULT_CASES[kind]
    config = ExperimentConfig(
        topology=TopologySpec("mesh", (4, 4)), routing=RoutingSpec("dor"),
        marking=MarkingSpec("ddpm"), selection=SelectionSpec("first"),
        seed=1, num_attackers=2, attack_rate_per_node=20.0, duration=0.5,
        background_rate=1.0, faults=FaultCampaign((spec,)), engine=engine)
    with pytest.raises(EngineUnsupported) as refused:
        run_identification_experiment(config)
    assert (refused.value.engine, refused.value.feature) == (engine, feature)


def _render_matrix():
    """The contract as DESIGN.md §12 prints it: one row per feature, then
    why each refused cell refuses."""
    lines = ["| feature | " + " | ".join(ENGINES) + " |",
             "|---" * (len(ENGINES) + 1) + "|"]
    notes = []
    for feature, (what, cells) in CONTRACT.items():
        texts = [cell.relation if cell.fallback is None
                 else f"refused → {cell.fallback}" for cell in cells.values()]
        lines.append(f"| `{feature}`: {what} | " + " | ".join(texts) + " |")
        refused = {}
        for engine, cell in cells.items():
            if cell.fallback:
                refused.setdefault(cell.why, []).append(engine)
        notes += [f"* `{feature}` on {' and '.join(engines)}: {why}."
                  for why, engines in refused.items()]
    return "\n".join(lines + [""] + notes) + "\n"


def test_design_doc_holds_the_rendered_matrix():
    matrix = _render_matrix()
    assert matrix in DESIGN.read_text(encoding="utf-8"), (
        "DESIGN.md §12's engine matrix is stale; replace it with:\n\n"
        + matrix)


def test_cli_engine_flag_reads_the_table(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "--help"])
    text = "".join(capsys.readouterr().out.split())  # undo argparse wrapping
    assert "--engine{" + ",".join(ENGINES) + "}" in text
    for engine in ENGINES:
        assert f"{engine}:" + ",".join(refused_features(engine)) in text
