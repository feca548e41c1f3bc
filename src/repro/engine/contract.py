"""The engine contract: what each fabric engine runs, and how faithfully.

One constant table, :data:`CONTRACT`, maps every feature whose support
differs between engines to one :class:`Cell` per engine in
:data:`ENGINES`. A cell's relation says how its results compare with the
exact engine's, the golden-pinned reference:

* ``identical`` — bit for bit;
* ``statistical`` — in distribution only (the engines draw from different
  RNG streams, or schedule contention differently);
* ``refused`` — the engine raises :class:`~repro.errors.EngineUnsupported`
  naming its ``fallback`` engine instead of diverging silently.

Every refusal is raised by :func:`refuse`. The static ones, which a
fabric's wiring decides before any packet moves, are checked by
:func:`admit`; each cohort ``run`` calls it before it builds an engine or
forks a shard worker. DESIGN.md §12 holds the table as the contract test
renders it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, NoReturn, Optional, Tuple

from repro.errors import EngineUnsupported
from repro.routing.plan import route_table
from repro.routing.selection import FirstCandidatePolicy, LeastCongestedPolicy, RandomPolicy

__all__ = ["ENGINES", "CONTRACT", "Cell", "admit", "refuse", "refused_features", "selection_mode"]

#: fabric engines selectable via ExperimentConfig.engine / --engine
ENGINES = ("exact", "batched", "sharded")


class Cell(NamedTuple):
    """One engine's support for one feature."""

    #: "identical", "statistical" or "refused"
    relation: str
    #: the engine to use where this one refuses; None if it never does
    fallback: Optional[str] = None
    #: why it refuses
    why: str = ""


SAME, STATS = Cell("identical"), Cell("statistical")


def _row(what: str, exact: Cell, cohort: Cell):
    """A contract row; both cohort engines (batched, sharded) share one cell."""
    return what, dict(zip(ENGINES, (exact, cohort, cohort)))


def _no(fallback: str, why: str) -> Cell:
    return Cell("refused", fallback, why)


#: feature -> (what it is, {engine: cell})
CONTRACT: Dict[str, Tuple[str, Dict[str, Cell]]] = {
    "deterministic-marking": _row(
        "deterministic marking (dpm, ddpm, ppm at p=1) under deterministic routing", SAME, SAME),
    "ddpm-any-routing": _row(
        "ddpm under any routing (its word depends only on source and destination, so the "
        "cohort engines derive it at delivery)", SAME, SAME),
    "marking-draws": _row("probabilistic marking draws and ppm-fragment offsets", SAME, STATS),
    "random-tie-breaks": _row("random or congestion tie-breaks", SAME, STATS),
    "bulk-injection": _row("columnar background traffic (schedule_background_bulk)",
                           _no("batched", "it writes into a columnar injection log"), STATS),
    "stateful-router": _row(
        "routers with per-packet route state (valiant, odd-even, pooled fully-adaptive, "
        "misrouting around failed links)",
        SAME, _no("exact", "per-packet route state has no columnar twin")),
    "scalar-only-marking": _row("schemes without their own columnar marking (ddpm-auth, hddpm)",
                                SAME, _no("exact", "both marking forms must come from one class")),
    "selection-without-twin": _row("selection policies other than first, random, least-congested",
                                   SAME, _no("exact", "it has no vectorized twin")),
    "discrete-events": _row(
        "scheduled discrete events (fault campaigns, dynamic attacks)",
        SAME, _no("exact", "cohort rounds execute no discrete event, so fault campaigns and "
                  "dynamic attacks would never fire; fail_link() before the run applies "
                  "static link failures")),
    "per-packet-hooks": _row("per-packet hooks (injection_filter, fault_hook, the inject gate)",
                             SAME, _no("exact", "cohorts carry no packet objects to hand them")),
    "per-packet-observers": _row(
        "per-packet delivery and drop handlers, transit observers, the congestion view",
        SAME, _no("exact", "cohorts carry no packet objects; attach_delivery_sink is the "
                  "columnar replacement")),
    "link-change-after-run": _row("fail_link and restore_link after the first run", SAME,
                                  _no("exact", "the route tables are fixed at the first run")),
    "run-until": _row("partial-horizon runs (run_until)", SAME,
                      _no("exact", "a cohort engine runs its capture to completion in one pass")),
    "capture-after-run": _row("traffic captured after a run", SAME,
                              _no("exact", "a cohort engine runs its capture once")),
}


def refuse(engine: str, feature: str, detail: Optional[str] = None) -> NoReturn:
    """Raise the table's refusal for ``engine`` × ``feature``; ``detail``
    names what the call site refuses (default: the feature's description)."""
    what, cells = CONTRACT[feature]
    _, fallback, why = cells[engine]
    raise EngineUnsupported(engine, feature, fallback, f"the {engine} engine refuses "
                            f"{detail or what}: {why}; use engine='{fallback}'")


def refused_features(engine: str) -> List[str]:
    """The features ``engine`` refuses."""
    return [name for name, (_, cells) in CONTRACT.items() if cells[engine].fallback]


#: selection policies with a vectorized twin, and the cohort mode each runs as
_TWINS = {LeastCongestedPolicy: "congestion", RandomPolicy: "random", FirstCandidatePolicy: "first"}


def selection_mode(selection) -> Optional[str]:
    """The cohort engines' vectorized twin of ``selection``, or None."""
    return next((mode for policy, mode in _TWINS.items() if isinstance(selection, policy)), None)


def _check_columnar_marking(scheme, engine: str = "batched") -> None:
    """Refuse a marking scheme whose cohort hop would not be its own.

    The scalar and columnar forms of each switch-side method must come
    from one class. A subclass that overrides only ``on_hop`` or
    ``on_inject`` (``ddpm-auth``'s MAC trail, ``hddpm``'s hierarchy tags)
    would otherwise run its parent's array form and silently lose its own
    marking. A scheme with a path-free ``word_array`` (DDPM) runs it in
    place of both array forms, so it is the twin of both scalar methods.
    ``None`` (no scheme) leaves the MF words at zero.
    """
    if scheme is None:
        return
    mro = type(scheme).__mro__
    derived = next((cls for cls in mro if "word_array" in vars(cls)), None)
    for scalar, array in (("on_inject", "inject_array"), ("on_hop", "on_hop_array")):
        owner = next(cls for cls in mro if scalar in vars(cls))
        if derived is not None:
            twin, array = derived, "word_array"
        else:
            twin = next((cls for cls in mro if array in vars(cls)), None)
        if twin is not owner:
            where = "nowhere" if twin is None else f"in {twin.__name__}"
            refuse(engine, "scalar-only-marking", f"marking scheme {scheme.name!r}, which "
                   f"defines {scalar} in {owner.__name__} but {array} {where}")


def admit(fabric) -> None:
    """Refuse a cohort fabric its engine would run wrongly.

    Checks the static rows in order: pending discrete events, per-packet
    hooks, the marking scheme, the router and the selection policy. Each
    cohort ``run`` calls it before building an engine or forking a shard
    worker.
    """
    engine, router, topology = fabric.engine_name, fabric.router, fabric.topology
    if len(fabric.sim.queue):
        refuse(engine, "discrete-events", f"{len(fabric.sim.queue)} scheduled discrete event(s)")
    if (fabric.injection_filter, fabric.fault_hook, fabric._inject_gate) != (None, None, None):
        refuse(engine, "per-packet-hooks")
    _check_columnar_marking(fabric.marking, engine)
    if route_table(router, topology) is None:
        failed = " on a fabric with failed links" if topology.links.failed_links else ""
        refuse(engine, "stateful-router", f"router {router.name!r}{failed}")
    if selection_mode(fabric.selection) is None:
        refuse(engine, "selection-without-twin",
               f"selection policy {type(fabric.selection).__name__}")
