"""Interprocedural RNG-provenance rule: D4.

D1–D3 police *syntax* (which APIs are called); D4 polices *provenance*
(where the values flow from). It taint-tracks RNG generator objects from
their creation sites. Inside the simulation perimeter (plus ``attack`` and
``defense``), every draw must trace back to a named stream handed out by
``engine.rng`` — a helper constructing ``default_rng()`` mid-simulation,
a module-global generator, or an ``AttackSpec`` reaching through another
component for *its* generator (``self.fabric.rng.integers(...)``) all
bypass the per-stream seeding contract and silently decouple results from
the config seed. Origins are tracked through local assignments and class
attributes (merged program-wide by class name, so a draw in one method is
checked against the assignment in ``__init__`` — even across files).

D4 is a :class:`~repro.lint.rules.ProgramRule`: the per-file pass
extracts JSON-serializable facts (cached by content hash) and the
settlement joins them program-wide.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.callgraph import iter_function_scopes, walk_in_scope
from repro.lint.determinism import (
    NP_RANDOM_CONSTRUCTORS,
    SIMULATION_PACKAGES,
    _attribute_chain,
    _site,
)
from repro.lint.rules import FileContext, Program, ProgramRule
from repro.lint.violations import Violation

__all__ = ["RngProvenance", "DRAW_METHODS"]

#: packages whose draws must trace to a named stream — the determinism
#: perimeter plus the scenario layers that drive it.
RNG_SCOPED_PACKAGES = SIMULATION_PACKAGES + ("attack", "defense")

#: the one module allowed to construct generators: it *is* the stream source.
RNG_SOURCE_MODULE = "engine/rng.py"

#: numpy Generator methods that consume stream state.
DRAW_METHODS = frozenset({
    "integers", "random", "choice", "shuffle", "permutation", "uniform",
    "normal", "exponential", "poisson", "standard_normal", "binomial",
    "geometric", "bytes", "permuted", "multinomial",
})

#: constructor names that mint a fresh generator (ad hoc unless in
#: engine/rng.py). SeedSequence is key material, not a generator.
_GENERATOR_CTORS = NP_RANDOM_CONSTRUCTORS - {"SeedSequence"}

#: Generator methods that derive new streams rather than consuming state.
_STREAM_DERIVING = frozenset({"stream", "spawn"})


def _package_of(ctx: FileContext) -> Optional[str]:
    module = ctx.repro_module()
    if module is None:
        return None
    return module.split("/", 1)[0]


def _is_generator_ctor(node: ast.Call) -> bool:
    chain = _attribute_chain(node.func)
    return chain is not None and chain[-1] in _GENERATOR_CTORS


def _is_stream_derivation(node: ast.AST) -> bool:
    """True for ``<x>.stream(...)`` / ``<x>.spawn(...)`` expressions."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _STREAM_DERIVING)


def _is_rng_named(name: str) -> bool:
    return name == "rng" or name.endswith("_rng")


# ----------------------------------------------------------------------
class RngProvenance(ProgramRule):
    """D4: every RNG draw in simulation code traces to a named stream."""

    rule_id = "D4"
    name = "rng-provenance"
    description = (
        "draws must come from a named engine.rng stream (or a Generator "
        "parameter fed by one): ad-hoc default_rng()/Generator() "
        "construction, module-global generators, and reaching through "
        "another component for its generator all bypass the per-stream "
        "seeding contract"
    )
    hint = (
        "derive a stream via RngRegistry.stream(name) (or accept a "
        "Generator parameter) instead of constructing or borrowing one"
    )

    def collect(self, ctx: FileContext) -> Optional[Dict[str, Any]]:
        package = _package_of(ctx)
        if package not in RNG_SCOPED_PACKAGES \
                or ctx.repro_module() == RNG_SOURCE_MODULE:
            return None

        creations: List[Dict[str, Any]] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _is_generator_ctor(node):
                chain = _attribute_chain(node.func)
                site = _site(node)
                site["ctor"] = chain[-1] if chain else "?"
                creations.append(site)

        # module-global generators: G = default_rng(...) at module scope
        module_globals: Dict[str, int] = {}
        for node in walk_in_scope(ctx.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call) \
                    and _is_generator_ctor(node.value):
                module_globals[node.targets[0].id] = node.lineno

        class_attrs: Dict[str, Dict[str, Dict[str, Any]]] = {}
        local_draws: List[Dict[str, Any]] = []
        attr_draws: List[Dict[str, Any]] = []
        foreign_draws: List[Dict[str, Any]] = []

        for scope, func, cls in iter_function_scopes(ctx.tree):
            params = {a.arg for a in func.args.args}  # type: ignore[attr-defined]
            local_origin: Dict[str, int] = {}
            blessed_locals: Set[str] = set(params)
            # walk_in_scope yields in stack order; the origin tracking below
            # is flow-sensitive, so replay the scope in source order.
            ordered = sorted(
                walk_in_scope(func),
                key=lambda n: (getattr(n, "lineno", 0),
                               getattr(n, "col_offset", 0)),
            )
            for node in ordered:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        if isinstance(node.value, ast.Call) \
                                and _is_generator_ctor(node.value):
                            local_origin[target.id] = node.lineno
                            blessed_locals.discard(target.id)
                        elif _is_stream_derivation(node.value):
                            blessed_locals.add(target.id)
                            local_origin.pop(target.id, None)
                    elif cls is not None and isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        kind = self._attr_origin_kind(node.value, blessed_locals)
                        if kind is not None:
                            class_attrs.setdefault(cls, {})[target.attr] = {
                                "kind": kind, "line": node.lineno}
                if not isinstance(node, ast.Call):
                    continue
                chain = _attribute_chain(node.func)
                if chain is None or len(chain) < 2 \
                        or chain[-1] not in DRAW_METHODS:
                    continue
                receiver = chain[:-1]
                if len(receiver) == 1:
                    name = receiver[0]
                    if name in local_origin:
                        site = _site(node)
                        site.update(var=name, origin=local_origin[name],
                                    scope=scope)
                        local_draws.append(site)
                    elif name in module_globals and name not in blessed_locals:
                        site = _site(node)
                        site.update(var=name, origin=module_globals[name],
                                    scope=scope)
                        local_draws.append(site)
                elif len(receiver) == 2 and receiver[0] == "self" \
                        and cls is not None:
                    site = _site(node)
                    site.update(cls=cls, attr=receiver[1], scope=scope)
                    attr_draws.append(site)
                if len(receiver) >= 3 and receiver[-1] == "rng":
                    site = _site(node)
                    site.update(chain=".".join(chain), scope=scope)
                    foreign_draws.append(site)

        if not (creations or class_attrs or local_draws or attr_draws
                or foreign_draws):
            return None
        return {
            "creations": creations,
            "class_attrs": class_attrs,
            "local_draws": local_draws,
            "attr_draws": attr_draws,
            "foreign_draws": foreign_draws,
        }

    @staticmethod
    def _attr_origin_kind(value: ast.AST,
                          blessed_locals: Set[str]) -> Optional[str]:
        """Origin of a ``self.X = <value>`` assignment, or None if opaque."""
        if isinstance(value, ast.Call) and _is_generator_ctor(value):
            return "creation"
        if _is_stream_derivation(value):
            return "stream"
        if isinstance(value, ast.Name):
            if value.id in blessed_locals and _is_rng_named(value.id):
                return "param"
            if value.id in blessed_locals:
                return None  # an opaque object, not provably a generator
        return None

    def settle(self, program: Program) -> Iterable[Violation]:
        facts = program.facts(self.rule_id)
        # merge class-attribute origins program-wide by class name, so a
        # draw in one method (or file) is checked against the __init__
        # assignment wherever it lives. "creation" beats any blessing.
        merged: Dict[Tuple[str, str], str] = {}
        for file_facts in facts.values():
            for cls, attrs in file_facts.get("class_attrs", {}).items():
                for attr, origin in attrs.items():
                    key = (cls, attr)
                    if merged.get(key) != "creation":
                        merged[key] = origin["kind"]
        for path in sorted(facts):
            file_facts = facts[path]
            for site in file_facts.get("creations", ()):
                yield Violation(
                    path=path, line=site["line"], col=site["col"],
                    rule=self.rule_id,
                    message=(f"ad-hoc generator construction "
                             f"{site['ctor']}() in simulation code"),
                    hint=self.hint,
                )
            for site in file_facts.get("local_draws", ()):
                yield Violation(
                    path=path, line=site["line"], col=site["col"],
                    rule=self.rule_id,
                    message=(f"draw from ad-hoc generator {site['var']!r} "
                             f"(constructed at line {site['origin']}) in "
                             f"{site['scope']!r}"),
                    hint=self.hint,
                )
            for site in file_facts.get("attr_draws", ()):
                if merged.get((site["cls"], site["attr"])) != "creation":
                    continue
                yield Violation(
                    path=path, line=site["line"], col=site["col"],
                    rule=self.rule_id,
                    message=(f"draw from ad-hoc generator attribute "
                             f"self.{site['attr']} of {site['cls']} in "
                             f"{site['scope']!r}"),
                    hint=self.hint,
                )
            for site in file_facts.get("foreign_draws", ()):
                yield Violation(
                    path=path, line=site["line"], col=site["col"],
                    rule=self.rule_id,
                    message=(f"draw through another component's generator "
                             f"({site['chain']}) in {site['scope']!r}"),
                    hint=self.hint,
                )
