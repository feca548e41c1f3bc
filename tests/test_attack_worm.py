"""Unit tests for worm propagation (second-generation DDoS)."""

import numpy as np
import pytest

from repro.attack.worm import WormOutbreak, analytic_si_curve
from repro.errors import ConfigurationError
from repro.network import Fabric
from repro.routing import DimensionOrderRouter
from repro.topology import Hypercube, Mesh


def make_outbreak(topology=None, seed=0, **kwargs):
    fab = Fabric(topology if topology is not None else Mesh((4, 4)),
                 DimensionOrderRouter())
    defaults = dict(seeds=(0,), scan_rate=5.0,
                    rng=np.random.default_rng(seed), horizon=30.0)
    defaults.update(kwargs)
    return fab, WormOutbreak(fab, **defaults)


class TestAnalyticCurve:
    def test_logistic_shape(self):
        times = np.linspace(0, 20, 50)
        curve = analytic_si_curve(100, 1, 1.0, times)
        assert curve[0] == pytest.approx(1.0, abs=0.1)
        assert curve[-1] == pytest.approx(100.0, abs=1.0)
        assert np.all(np.diff(curve) >= 0)  # monotone growth

    def test_half_population_at_inflection(self):
        # Inflection of the logistic at t* = ln((N - I0)/I0)/beta.
        n, i0, beta = 64, 1, 0.8
        t_star = np.log((n - i0) / i0) / beta
        curve = analytic_si_curve(n, i0, beta, np.array([t_star]))
        assert curve[0] == pytest.approx(n / 2, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            analytic_si_curve(10, 0, 1.0, np.array([0.0]))


class TestOutbreak:
    def test_infection_spreads(self):
        fab, worm = make_outbreak()
        fab.run_until(30.0)
        assert worm.infected_count > 1
        assert worm.scans_sent > 0

    def test_full_saturation_given_time(self):
        fab, worm = make_outbreak(seed=1, scan_rate=20.0, horizon=60.0)
        fab.run_until(60.0)
        assert worm.infected_count == fab.topology.num_nodes

    def test_growth_tracks_logistic_roughly(self):
        """Simulated half-infection time tracks the analytic SI inflection.

        Four seed nodes damp early branching-process variance; a slow scan
        rate keeps network latency negligible against the epidemic
        timescale. Tolerance is still generous — the ODE ignores both.
        """
        topology = Hypercube(5)  # 32 nodes
        seeds = (0, 1, 2, 3)
        fab, worm = make_outbreak(topology=topology, seed=2, scan_rate=1.0,
                                  seeds=seeds, horizon=60.0)
        fab.run_until(60.0)
        times, counts = worm.curve.arrays()
        half_idx = np.searchsorted(counts, topology.num_nodes / 2)
        assert half_idx < len(times)
        t_half_sim = times[half_idx]
        beta = worm.effective_contact_rate()
        n, i0 = topology.num_nodes, len(seeds)
        t_half_ana = np.log((n - i0) / i0) / beta
        assert t_half_sim == pytest.approx(t_half_ana, rel=1.0)

    def test_infection_probability_slows_spread(self):
        fab_fast, worm_fast = make_outbreak(seed=3, scan_rate=10.0,
                                            infection_probability=1.0,
                                            horizon=8.0)
        fab_slow, worm_slow = make_outbreak(seed=3, scan_rate=10.0,
                                            infection_probability=0.1,
                                            horizon=8.0)
        fab_fast.run_until(8.0)
        fab_slow.run_until(8.0)
        assert worm_fast.infected_count > worm_slow.infected_count

    def test_sir_recovery_caps_epidemic(self):
        fab, worm = make_outbreak(seed=4, scan_rate=2.0, recovery_rate=4.0,
                                  horizon=40.0)
        fab.run_until(40.0)
        # Recovery far faster than spread: the outbreak dies out early.
        assert worm.infected_count + len(worm.recovered) < fab.topology.num_nodes

    def test_recovered_nodes_immune(self):
        fab, worm = make_outbreak(seed=5)
        worm._recover(0)
        assert 0 in worm.recovered
        worm._infect(0, at_time=1.0)
        assert 0 not in worm.infected

    def test_validation(self):
        fab = Fabric(Mesh((4, 4)), DimensionOrderRouter())
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            WormOutbreak(fab, seeds=(), scan_rate=1.0, rng=rng)
        with pytest.raises(ConfigurationError):
            WormOutbreak(fab, seeds=(0,), scan_rate=0.0, rng=rng)
        with pytest.raises(ConfigurationError):
            WormOutbreak(fab, seeds=(0,), scan_rate=1.0, rng=rng,
                         infection_probability=0.0)


#: seed -> (infection time of node 0..15, scans_sent, recovered nodes,
#: events_executed, heap_events) for a 4x4 mesh, DOR, one seed node,
#: scan_rate=5, recovery_rate=0.2, horizon=30. A change to how the
#: simulator orders or counts events moves these numbers.
PINNED_OUTBREAKS = {
    0: (
        (0.0, 0.5403732856294186, 2.0682934412100273,
         2.4070900158745054, 1.8328878809370253, 0.619919420293173,
         1.6038924678576159, 1.630037655109135, 3.2867310972399437,
         1.6145278954520592, 0.8904418601572286, 1.2562187222557533,
         2.039940963774639, 2.3051564043293147, 1.1051584506906749,
         1.6048857427824335),
        472, (0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        5310, 4061),
    1: (
        (0.0, 0.8568738601463453, 0.7840605541620154,
         1.5911971848414186, 1.27143865760782, 0.574048459226384,
         1.895337980771714, 1.0575239383355541, 1.7316972200187553,
         2.2294581009723338, 1.677489375533505, 1.9132625340774843,
         1.880313622977941, 0.637690628825057, 1.345782404692739,
         0.8709760514050235),
        526, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        5862, 4499),
    2: (
        (0.0, 1.6313060872226646, 1.9424307853629996,
         2.3489815847902866, 1.3467905522687635, 1.043339675511969,
         2.979983955085761, 0.6197565733036141, 1.9616294899453355,
         1.008305351315051, 2.083915761274383, 1.1334079770356509,
         1.9369592902128823, 0.7612541341019361, 1.3011714412681945,
         2.9719398720489605),
        550, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        5922, 4559),
    3: (
        (0.0, 2.17239619782936, 1.3443392802145073,
         0.5739313747147408, 1.8105711819097092, 1.98683078746351,
         1.972837485940938, 1.6854933274415624, 1.407269988915383,
         2.4174478196390425, 1.7266268410912544, 1.010450028722223,
         1.3504500287222232, 1.093960993871017, 1.2739637131501125,
         2.3392160686887413),
        377, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        4098, 3173),
}


@pytest.mark.parametrize("seed", sorted(PINNED_OUTBREAKS))
def test_outbreak_is_pinned(seed):
    fab, worm = make_outbreak(seed=seed, recovery_rate=0.2)
    fab.run_until(30.0)
    times = tuple(worm.infection_times[n] for n in sorted(worm.infection_times))
    assert sorted(worm.infection_times) == list(range(len(times)))
    assert (times, worm.scans_sent, tuple(sorted(worm.recovered)),
            fab.sim.events_executed, fab.sim.heap_events) == PINNED_OUTBREAKS[seed]
