"""The golden pins hold when a run is cut into ``run_until`` segments.

An uncontended channel send defers its completion event
(``Simulator.defer``): it runs in place unless a packet comes to wait for
it, and each ``run_until`` boundary pushes the ones still ahead onto the
heap. Every scenario of ``tests/golden/equivalence.json`` is replayed with
its one ``cluster.run()`` cut into segments, plain and under
``REPRO_SANITIZE=1``. Every pin must hold, ``events_executed`` included,
and at each cut ``events_executed`` must equal that of a run that pushes
every completion onto the heap when it is scheduled.
"""

import json

import pytest

from repro.core.cluster import Cluster
from repro.engine.simulator import Simulator
from tests.test_golden_equivalence import GOLDEN_PATH, SCENARIOS, run_scenario

#: run_until boundaries before the final drain; the attack lasts 1.5
SCHEDULES = {"one-cut": (0.75,), "three-cuts": (0.25, 0.5, 0.75)}


def _replay(monkeypatch, scenario, cuts, eager):
    whole = Cluster.run
    counts = []

    def split_run(self, until=None):
        for cut in cuts:
            whole(self, cut)
            counts.append(self.sim.events_executed)
        return whole(self, until)

    def defer_then_push(self, owner, *args):
        entry = defer(self, owner, *args)
        self.commit(owner)
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(Cluster, "run", split_run)
        if eager:
            defer = Simulator.defer
            patch.setattr(Simulator, "defer", defer_then_push)
        _, kind, dims, routing, selection, seed = scenario
        return run_scenario(kind, dims, routing, selection, seed), counts


@pytest.mark.parametrize("sanitize", ["", "1"], ids=["plain", "sanitized"])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s[0] for s in SCENARIOS])
@pytest.mark.parametrize("cuts", SCHEDULES.values(), ids=list(SCHEDULES))
def test_split_runs_hold_the_pins(monkeypatch, sanitize, scenario, cuts):
    monkeypatch.setenv("REPRO_SANITIZE", sanitize)
    pinned = json.loads(GOLDEN_PATH.read_text())[scenario[0]]
    fresh, counts = _replay(monkeypatch, scenario, cuts, eager=False)
    assert fresh["events_executed"] == pinned["events_executed"]
    assert fresh == pinned
    reference, reference_counts = _replay(monkeypatch, scenario, cuts, eager=True)
    assert reference == pinned
    assert counts == reference_counts
