"""Determinism and hot-path rules: D1, D2, D3, H1, H3.

These rules encode the invariants behind the golden seed-for-seed
equivalence contract (``tests/golden/equivalence.json``): simulation
behavior may depend only on the config and its seed — never on wall-clock
time, process-global RNG state, or unordered container iteration — and the
zero-allocation scheduling fast path must stay closure-free.

D1 and D2 are local rules: their findings depend on one file's text
alone. D3, H1, and H3 are :class:`~repro.lint.rules.ProgramRule`
subclasses — they collect per-file facts and settle against the
whole-program :class:`~repro.lint.callgraph.CallGraph`, so "this function
schedules events" and "this loop runs on the cohort-advance path" are
*computed* through the call graph instead of guessed from local syntax.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.callgraph import MODULE_SCOPE, iter_function_scopes, walk_in_scope
from repro.lint.rules import FileContext, Program, ProgramRule, Rule
from repro.lint.violations import Violation

__all__ = [
    "NoWallclock",
    "NoGlobalRng",
    "OrderedIteration",
    "NoClosureScheduling",
    "NoPerPacketPythonInBatchedPath",
]

#: repro subpackages whose code feeds simulated behavior — the determinism
#: perimeter. runner/cli/analysis sit outside it (they may time things).
SIMULATION_PACKAGES = ("engine", "network", "routing", "marking", "faults")

#: files inside the perimeter that are *about* wall-clock time by design:
#: the watchdog measures real stalls, the profiler measures real cost.
WALLCLOCK_ALLOWED = frozenset({"engine/watchdog.py", "engine/profile.py"})

#: ``time`` module attributes that read host clocks.
WALLCLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "localtime", "gmtime",
})

#: ``datetime``/``date`` constructors that read host clocks.
WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: links through which perimeter code reaches the clock-reading watchdog
#: and profiler.
WALLCLOCK_LINKS = frozenset({
    "watchdog", "_watchdog", "profile", "_profile", "profiler", "_profiler",
})

#: configuration the perimeter may read back through a link: set by the
#: caller, never measured.
WALLCLOCK_CONFIG_READS = frozenset({
    "check_interval", "hop_ceiling", "wall_clock_limit",
})

#: ``numpy.random`` names that are explicit seed-carrying constructors
#: rather than process-global draws. Calling one *without* seed material
#: is still flagged (it would pull OS entropy).
NP_RANDOM_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


def _in_simulation_perimeter(ctx: FileContext) -> bool:
    module = ctx.repro_module()
    if module is None:
        return False
    return (module.split("/", 1)[0] in SIMULATION_PACKAGES
            and module not in WALLCLOCK_ALLOWED)


def _attribute_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Dotted-name tuple for Name/Attribute chains (None when dynamic)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _site(node: ast.AST) -> Dict[str, int]:
    """JSON-ready source anchor for a collected fact."""
    return {"line": getattr(node, "lineno", 1),
            "col": getattr(node, "col_offset", 0) + 1}


# ----------------------------------------------------------------------
class NoWallclock(Rule):
    """D1: simulation code must not consult host clocks.

    The watchdog and profiler are exempt because they are *about* wall
    time, so D1 also keeps their values from flowing back: a perimeter
    attribute chain through a watchdog/profiler link may be stored to,
    called as a statement, or read for its configuration
    (:data:`WALLCLOCK_CONFIG_READS`); any other read is a finding.
    """

    rule_id = "D1"
    name = "no-wallclock"
    description = (
        "time.time/perf_counter/monotonic and datetime.now are forbidden in "
        "engine, network, routing, marking, and faults (watchdog and "
        "profiler are exempt by design, but values read back out of them "
        "are not)"
    )
    hint = (
        "simulated behavior must depend only on Simulator.now; wall-clock "
        "reads belong in runner/cli/watchdog/profiler code"
    )
    escape_hint = (
        "consume watchdog/profiler observables in runner/cli/analysis code; "
        "the perimeter may only configure them or call them as statements"
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        if not _in_simulation_perimeter(ctx):
            return
        # ast.walk visits parents first, so both sets are complete for a
        # node by the time it is reached.
        receivers: Set[int] = set()
        statement_callees: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in WALLCLOCK_TIME_ATTRS:
                        yield ctx.violation(
                            self, node,
                            f"imports wall-clock function time.{alias.name}",
                        )
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                statement_callees.add(id(node.value.func))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Attribute):
                    receivers.add(id(node.value))
                chain = _attribute_chain(node)
                if chain is None:
                    continue
                if chain[0] == "time" and len(chain) == 2 \
                        and chain[1] in WALLCLOCK_TIME_ATTRS:
                    yield ctx.violation(
                        self, node, f"reads host clock via {'.'.join(chain)}"
                    )
                elif chain[0] == "datetime" and len(chain) <= 3 \
                        and chain[-1] in WALLCLOCK_DATETIME_ATTRS:
                    yield ctx.violation(
                        self, node, f"reads host clock via {'.'.join(chain)}"
                    )
                elif isinstance(node.ctx, ast.Load) \
                        and id(node) not in receivers \
                        and id(node) not in statement_callees \
                        and chain[-1] not in WALLCLOCK_CONFIG_READS \
                        and WALLCLOCK_LINKS.intersection(chain[:-1]):
                    yield ctx.violation(
                        self, node,
                        f"reads {'.'.join(chain)} back out of the "
                        "watchdog/profiler exemption",
                        hint=self.escape_hint,
                    )


# ----------------------------------------------------------------------
class NoGlobalRng(Rule):
    """D2: all randomness flows from seeded, named generator streams."""

    rule_id = "D2"
    name = "no-global-rng"
    description = (
        "module-level random.*/np.random.* draws and unseeded "
        "random.Random()/np.random.default_rng() are forbidden in repro "
        "packages; draw from the simulator's named RNG streams"
    )
    hint = (
        "take a numpy Generator parameter or use "
        "Simulator.rng.stream(name); never the process-global RNG"
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        if ctx.repro_parts is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if chain is None:
                continue
            unseeded = not node.args and not node.keywords
            if chain[0] == "random" and len(chain) == 2:
                attr = chain[1]
                if attr == "Random":
                    if unseeded:
                        yield ctx.violation(
                            self, node,
                            "unseeded random.Random() draws OS entropy",
                        )
                else:
                    yield ctx.violation(
                        self, node,
                        f"call to process-global random.{attr}()",
                    )
            elif len(chain) == 3 and chain[0] in ("np", "numpy") \
                    and chain[1] == "random":
                attr = chain[2]
                if attr in NP_RANDOM_CONSTRUCTORS:
                    if unseeded:
                        yield ctx.violation(
                            self, node,
                            f"unseeded {chain[0]}.random.{attr}() draws OS entropy",
                        )
                else:
                    yield ctx.violation(
                        self, node,
                        f"call to process-global {chain[0]}.random.{attr}()",
                    )


# ----------------------------------------------------------------------
#: call names that schedule simulator events: each takes its callback in
#: slot 1, then the callback's arguments (``schedule_args`` takes them as
#: one tuple), and none takes a closure.
_SCHEDULING_CALLS = frozenset({"schedule_call", "schedule_args", "schedule_at"})
#: wrappers that preserve their argument's iteration order.
_ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})
#: Generator methods that are stream bookkeeping, not draws.
_NON_DRAW_RNG_METHODS = frozenset({"stream", "spawn"})


def _is_set_annotation(annotation: ast.AST) -> bool:
    """True for ``Set[...]``/``set[...]``/``FrozenSet[...]`` annotations."""
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    chain = _attribute_chain(target)
    return chain is not None and chain[-1] in ("Set", "set", "FrozenSet",
                                               "frozenset", "AbstractSet",
                                               "MutableSet")


def _is_scheduling_call(node: ast.Call) -> bool:
    chain = _attribute_chain(node.func)
    return (chain is not None and len(chain) > 1
            and chain[-1] in _SCHEDULING_CALLS)


def _is_rng_draw_call(node: ast.Call) -> bool:
    """True for method calls on an rng-named receiver, excluding stream()."""
    chain = _attribute_chain(node.func)
    if chain is None or len(chain) < 2:
        return False
    return "rng" in chain[:-1] and chain[-1] not in _NON_DRAW_RNG_METHODS


def _mentions_rng(func: ast.AST) -> bool:
    for node in walk_in_scope(func):
        if isinstance(node, ast.Name) and node.id == "rng":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "rng":
            return True
    return False


class _UnorderedIterClassifier:
    """Decides whether an iterable expression has unordered iteration order."""

    def __init__(self, local_set_names: Set[str]):
        self.local_set_names = local_set_names

    def describe(self, node: ast.AST) -> Optional[str]:
        """Short description of the unordered construct, or None if ordered."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Name) and node.id in self.local_set_names:
            return f"set-valued local {node.id!r}"
        if isinstance(node, ast.Call):
            chain = _attribute_chain(node.func)
            if chain is None:
                return None
            if chain[-1] == "sorted" or chain == ("sorted",):
                return None
            if len(chain) == 1 and chain[0] in ("set", "frozenset"):
                return f"{chain[0]}(...)"
            if len(chain) == 1 and chain[0] in _ORDER_PRESERVING and node.args:
                return self.describe(node.args[0])
            if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
                return ".keys()"
        return None


class OrderedIteration(ProgramRule):
    """D3: event-scheduling / RNG-consuming code iterates in sorted order.

    Whether a function "schedules events or consumes RNG" is decided
    through the call graph: a function is order-sensitive when it makes a
    scheduling call or RNG draw itself, mentions an ``rng`` object, or can
    *reach* a scheduling/drawing function through any chain of calls. The
    per-file pass only records candidate unordered-iteration sites and the
    seed properties; settlement resolves reachability program-wide.
    """

    rule_id = "D3"
    name = "ordered-iteration"
    description = (
        "iterating a set or .keys() view without sorted() inside a function "
        "that schedules events or consumes RNG (directly, or through any "
        "call chain) makes event order depend on hash seeds"
    )
    hint = "wrap the iterable in sorted(...) (or iterate a deterministic sequence)"

    def collect(self, ctx: FileContext) -> Optional[Dict[str, Any]]:
        scopes: List[Dict[str, Any]] = []
        for scope, func, _cls in iter_function_scopes(ctx.tree):
            sched = draw = False
            for node in walk_in_scope(func):
                if isinstance(node, ast.Call):
                    if _is_scheduling_call(node):
                        sched = True
                    elif _is_rng_draw_call(node):
                        draw = True
            iters: List[Dict[str, Any]] = []
            classifier = _UnorderedIterClassifier(self._local_set_names(func))
            for iter_expr in self._iterations(func):
                described = classifier.describe(iter_expr)
                if described is None:
                    continue
                site = _site(iter_expr)
                site["desc"] = described
                iters.append(site)
            if not (sched or draw or iters):
                continue
            scopes.append({
                "scope": scope,
                "name": func.name,  # type: ignore[attr-defined]
                "sched": sched,
                "draw": draw,
                "rng": _mentions_rng(func),
                "iters": iters,
            })
        return {"scopes": scopes} if scopes else None

    def settle(self, program: Program) -> Iterable[Violation]:
        facts = program.facts(self.rule_id)
        seeds: List[str] = []
        for path, file_facts in facts.items():
            for entry in file_facts["scopes"]:
                if entry["sched"] or entry["draw"]:
                    seeds.append(f"{path}::{entry['scope']}")
        sensitive = program.callgraph.backward_reachable(seeds)
        for path in sorted(facts):
            for entry in facts[path]["scopes"]:
                if not entry["iters"]:
                    continue
                qual = f"{path}::{entry['scope']}"
                if entry["sched"] or entry["draw"] or entry["rng"]:
                    why = "schedules events or consumes RNG"
                elif qual in sensitive:
                    why = ("can reach event-scheduling or RNG-consuming "
                           "code through its calls")
                else:
                    continue
                for site in entry["iters"]:
                    yield Violation(
                        path=path, line=site["line"], col=site["col"],
                        rule=self.rule_id,
                        message=(f"iteration over {site['desc']} in "
                                 f"{entry['name']!r}, which {why}"),
                        hint=self.hint,
                    )

    @staticmethod
    def _local_set_names(func: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in walk_in_scope(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = node.value
                if isinstance(value, (ast.Set, ast.SetComp)):
                    names.add(node.targets[0].id)
                elif isinstance(value, ast.Call):
                    chain = _attribute_chain(value.func)
                    if chain in (("set",), ("frozenset",)):
                        names.add(node.targets[0].id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _is_set_annotation(node.annotation):
                    names.add(node.target.id)
        return names

    @staticmethod
    def _iterations(func: ast.AST) -> Iterable[ast.AST]:
        for node in walk_in_scope(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield generator.iter


# ----------------------------------------------------------------------
class NoClosureScheduling(ProgramRule):
    """H1: the allocation-free fast path takes no lambdas or nested defs.

    Two layers: the syntactic check (a lambda or nested def passed straight
    to ``schedule_call``, ``schedule_args`` or ``schedule_at``) and an
    interprocedural one — a function that forwards one of its parameters
    into a scheduling call's callback slot is a *scheduling forwarder*, and
    passing a lambda to the forwarder is the same violation one call
    further from the heap.
    """

    rule_id = "H1"
    name = "no-closure-scheduling"
    description = (
        "lambda or nested-def arguments to schedule_call() — directly or "
        "through a forwarding wrapper — defeat the zero-closure heap-tuple "
        "fast path; pass the bound method and its arguments separately"
    )
    hint = "use sim.schedule_call(delay, obj.method, arg1, arg2) — no closures"

    def collect(self, ctx: FileContext) -> Optional[Dict[str, Any]]:
        direct: List[Dict[str, Any]] = []
        forwarders: List[Dict[str, Any]] = []
        lambda_calls: List[Dict[str, Any]] = []

        def scan_scope(body_root: ast.AST, nested: Set[str]) -> None:
            for node in walk_in_scope(body_root):
                if not isinstance(node, ast.Call):
                    continue
                chain = _attribute_chain(node.func)
                if chain is not None and len(chain) > 1 \
                        and chain[-1] in _SCHEDULING_CALLS:
                    args = list(node.args) + [kw.value for kw in node.keywords]
                    for arg in args + [element for arg in args
                                       if isinstance(arg, ast.Tuple)
                                       for element in arg.elts]:
                        if isinstance(arg, ast.Lambda):
                            site = _site(arg)
                            site["what"] = "lambda"
                        elif isinstance(arg, ast.Name) and arg.id in nested:
                            site = _site(arg)
                            site["what"] = f"nested function {arg.id!r}"
                        else:
                            continue
                        site["callee"] = chain[-1]
                        direct.append(site)
                if chain is not None and chain[-1] not in _SCHEDULING_CALLS:
                    indices = [index for index, arg in enumerate(node.args)
                               if isinstance(arg, ast.Lambda)]
                    if indices:
                        site = _site(node)
                        site["callee"] = chain[-1]
                        site["lambda_args"] = indices
                        lambda_calls.append(site)

        scan_scope(ctx.tree, set())
        for scope, func, cls in iter_function_scopes(ctx.tree):
            nested = {child.name for child in ast.walk(func)
                      if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and child is not func}
            scan_scope(func, nested)
            forwarder = self._forwarder_record(func, cls, scope)
            if forwarder is not None:
                forwarders.append(forwarder)
        if not (direct or forwarders or lambda_calls):
            return None
        return {"direct": direct, "forwarders": forwarders,
                "calls": lambda_calls}

    @staticmethod
    def _forwarder_record(func: ast.AST, cls: Optional[str],
                          scope: str) -> Optional[Dict[str, Any]]:
        """Forwarder facts when ``func`` passes a param into schedule_call."""
        params = [a.arg for a in func.args.args]  # type: ignore[attr-defined]
        offset = 1 if cls is not None and params and params[0] in ("self", "cls") \
            else 0
        for node in walk_in_scope(func):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if chain is None or len(chain) < 2 \
                    or chain[-1] not in _SCHEDULING_CALLS:
                continue
            if len(node.args) < 2 or not isinstance(node.args[1], ast.Name):
                continue
            callback = node.args[1].id
            if callback in params:
                return {"name": func.name,  # type: ignore[attr-defined]
                        "scope": scope,
                        "arg_index": params.index(callback) - offset}
        return None

    def settle(self, program: Program) -> Iterable[Violation]:
        facts = program.facts(self.rule_id)
        forwarder_quals: Dict[str, Set[str]] = {}
        forwarder_indices: Dict[str, Set[int]] = {}
        for path, file_facts in facts.items():
            for forwarder in file_facts.get("forwarders", ()):
                if forwarder["arg_index"] < 0:
                    continue
                name = forwarder["name"]
                forwarder_quals.setdefault(name, set()).add(
                    f"{path}::{forwarder['scope']}")
                forwarder_indices.setdefault(name, set()).add(
                    forwarder["arg_index"])
        # Call resolution is name-based, so only a name whose EVERY
        # definition forwards is flagged at call sites — a method that
        # stores or calls its callback without scheduling it must not
        # taint an unrelated forwarder that happens to share its name.
        forwarders: Dict[str, Set[int]] = {}
        for name, quals in forwarder_quals.items():
            if set(program.callgraph.quals_named(name)) <= quals:
                forwarders[name] = forwarder_indices[name]
        for path in sorted(facts):
            file_facts = facts[path]
            for site in file_facts.get("direct", ()):
                yield Violation(
                    path=path, line=site["line"], col=site["col"],
                    rule=self.rule_id,
                    message=f"{site['what']} passed to {site['callee']}()",
                    hint=self.hint,
                )
            for call in file_facts.get("calls", ()):
                hit_indices = forwarders.get(call["callee"])
                if not hit_indices:
                    continue
                if not hit_indices.intersection(call["lambda_args"]):
                    continue
                yield Violation(
                    path=path, line=call["line"], col=call["col"],
                    rule=self.rule_id,
                    message=(f"lambda passed to {call['callee']}(), which "
                             "forwards it to schedule_call()"),
                    hint=self.hint,
                )


# ----------------------------------------------------------------------
#: the batched cohort-advance path: every per-row operation in these
#: modules must be a whole-array numpy step, never a Python loop. The
#: marking modules hold the schemes' columnar hops (``on_hop_array``);
#: the route table holds the cohorts' candidate fill (``lookup``).
_BATCHED_PATH_MODULES = frozenset({
    "engine/batched.py", "engine/sharded.py", "network/colqueue.py",
    "routing/plan.py",
    "marking/base.py", "marking/ddpm.py", "marking/dpm.py",
    "marking/ppm.py", "marking/ppm_fragment.py", "marking/advanced_ppm.py",
})

#: registration calls that subscribe a Python callable per packet event;
#: flagged in the batched modules and in every ``network/`` module.
_PER_PACKET_REGISTRATIONS = frozenset({
    "add_delivery_handler", "add_drop_handler", "add_transit_observer",
})

#: method names that anchor the steady-state advance path.
_ENGINE_ROOT_METHODS = frozenset({"run", "advance", "advance_window"})


class NoPerPacketPythonInBatchedPath(ProgramRule):
    """H3: the cohort-advance path stays loop-free (vectorized numpy only).

    The batched engine's whole performance contract is that cost scales
    with *rounds*, not packets. An explicit ``for``/``while`` over cohort
    rows quietly reintroduces per-packet Python and erodes the 10x
    throughput floor the benchmark gate enforces. A per-packet callback
    registration does the same to the exact engine's columnar delivery
    path, so registrations are flagged in every ``network/`` module too.

    Hot-path membership is computed, not guessed: the roots are the
    ``run``/``advance`` methods of engine classes inside the batched
    modules, and a loop is only flagged when its enclosing function is
    forward-reachable from a root *without* traversing constructor edges —
    build-time work (``__init__``, table construction) runs once per
    simulation and may loop freely.
    """

    rule_id = "H3"
    name = "no-per-packet-python-in-batched-path"
    description = (
        "explicit for/while loops reachable from the cohort-advance roots "
        "(Engine.run/advance/advance_window) in the batched modules "
        "(engine/batched.py, engine/sharded.py, network/colqueue.py, "
        "routing/plan.py and the marking schemes' columnar hops), and "
        "per-packet callback registrations (add_delivery_handler and "
        "friends) there or anywhere in network/, reintroduce per-row "
        "Python cost; build-time construction is exempt"
    )
    hint = (
        "express the operation over whole cohort columns with numpy, or "
        "observe deliveries through Fabric.attach_delivery_sink; suppress "
        "a sanctioned loop or diagnostic with `# repro-lint: disable=H3`"
    )

    def collect(self, ctx: FileContext) -> Optional[Dict[str, Any]]:
        module = ctx.repro_module()
        batched = module in _BATCHED_PATH_MODULES
        if not batched and not (module or "").startswith("network/"):
            return None
        loops: List[Dict[str, Any]] = []
        registrations: List[Dict[str, Any]] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = _attribute_chain(node.func)
                if chain is not None and len(chain) > 1 \
                        and chain[-1] in _PER_PACKET_REGISTRATIONS:
                    site = _site(node)
                    site["name"] = chain[-1]
                    registrations.append(site)
        scopes = [(MODULE_SCOPE, ctx.tree)] + [
            (scope, func) for scope, func, _cls in iter_function_scopes(ctx.tree)
        ] if batched else []
        for scope, body_root in scopes:
            for node in walk_in_scope(body_root):
                if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                    site = _site(node)
                    site["scope"] = scope
                    site["kind"] = ("while" if isinstance(node, ast.While)
                                    else "for")
                    loops.append(site)
        return {"loops": loops, "registrations": registrations}

    def settle(self, program: Program) -> Iterable[Violation]:
        facts = program.facts(self.rule_id)
        if not facts:
            return
        graph = program.callgraph
        roots = [
            info.qual for info in graph.functions.values()
            if info.path in facts and info.name in _ENGINE_ROOT_METHODS
            and info.cls is not None and "Engine" in info.cls
        ]
        hot = graph.forward_reachable(roots, follow_ctor=False)
        for path in sorted(facts):
            file_facts = facts[path]
            for site in file_facts["loops"]:
                scope = site["scope"]
                if scope != MODULE_SCOPE \
                        and f"{path}::{scope}" not in hot:
                    continue
                where = ("at module scope" if scope == MODULE_SCOPE
                         else f"in {scope!r}, which is advance-reachable")
                yield Violation(
                    path=path, line=site["line"], col=site["col"],
                    rule=self.rule_id,
                    message=(f"explicit {site['kind']}-loop {where} on the "
                             "batched cohort path"),
                    hint=self.hint,
                )
            for site in file_facts["registrations"]:
                yield Violation(
                    path=path, line=site["line"], col=site["col"],
                    rule=self.rule_id,
                    message=(f"per-packet callback registration "
                             f"{site['name']}() on a columnar hot path"),
                    hint=self.hint,
                )
