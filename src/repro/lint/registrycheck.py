"""R1 registry-completeness: every pluggable concrete class is reachable.

The experiment axes dispatch by *name* through :mod:`repro.registry`, and
the result cache keys on the canonical ``to_dict`` serialization of specs.
Both contracts silently rot when someone adds a router, marking scheme, or
fault spec and forgets the registration (the class exists but no config can
select it) or the serialization pair (the spec works in-process but cannot
ride in a cached config). R1 makes both omissions a lint failure:

* every concrete subclass of ``Router``, ``MarkingScheme``, ``FaultSpec``,
  or ``AttackSpec`` defined under ``src/repro`` must be *reachable from a
  registration*: its name must appear either directly in a
  ``REGISTRY.register(...)`` call, in a ``@REGISTRY.register(name)``-
  decorated factory, or in the body of a factory function passed to
  ``register``;
* every concrete ``FaultSpec`` or ``AttackSpec`` subclass, and the config
  spec classes
  (``TopologySpec``/``RoutingSpec``/``SelectionSpec``/``MarkingSpec``),
  must define (or inherit) the ``to_dict``/``from_dict`` pair — attack
  and fault kinds inherit it from :class:`repro.util.kindspec.KindSpec`;
* modules that deal in registries must not ``raise KeyError`` on failed
  name lookups — that is what the structured
  :class:`repro.errors.UnknownNameError` (with its ``choices`` attribute)
  exists for.

A class that cannot be name-constructed because its ``__init__``
*requires* a live object the registry factory signature cannot supply
(``TableRouter(topology: Topology)`` — routing factories receive only an
rng) is exempted automatically: the requirement is read off the
annotation, so no suppression comment is needed and W1 flags any stale
one. Classes that are unconstructible for reasons the annotations don't
show can still opt out with ``# repro-lint: disable=R1`` on the ``class``
line.

R1 is a :class:`~repro.lint.rules.ProgramRule`: class definitions and
registration references are collected per file (cacheable facts) and
joined at settlement; the KeyError check is purely local and stays in
``check``.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.determinism import _attribute_chain
from repro.lint.rules import FileContext, Program, ProgramRule, register_rule
from repro.lint.violations import Violation

__all__ = ["RegistryCompleteness"]

#: base classes whose concrete descendants must be registered.
REGISTERED_BASES = frozenset({"Router", "MarkingScheme", "FaultSpec",
                              "AttackSpec"})

#: spec roots whose descendants must carry the serialization pair.
SERIALIZED_SPEC_ROOTS = frozenset({"FaultSpec", "AttackSpec"})

#: classes that must carry the to_dict/from_dict serialization pair:
#: concrete FaultSpec/AttackSpec descendants plus the named config specs.
SERIALIZED_SPEC_CLASSES = frozenset({
    "TopologySpec", "RoutingSpec", "SelectionSpec", "MarkingSpec",
})

#: live-object parameter types each root's registry factory CANNOT supply
#: (routing factories are ``factory(rng)``; marking factories are
#: ``factory(rng, topology, probability)``). A concrete class requiring
#: one of these in __init__ is not name-constructible and is auto-exempt
#: from the registration requirement.
UNSUPPLIABLE_LIVE_TYPES: Dict[str, Tuple[str, ...]] = {
    "Router": ("Topology", "Fabric", "Simulator"),
    "MarkingScheme": ("Fabric", "Simulator"),
}

_CLASSLIKE_RE = re.compile(r"^[A-Z]")


def _base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    names: List[str] = []
    for base in node.bases:
        chain = _attribute_chain(base)
        if chain is not None:
            names.append(chain[-1])
    return tuple(names)


def _is_abstract(node: ast.ClassDef, bases: Tuple[str, ...]) -> bool:
    if "ABC" in bases:
        return True
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in item.decorator_list:
                chain = _attribute_chain(decorator)
                if chain is not None and chain[-1] in ("abstractmethod",
                                                       "abstractproperty"):
                    return True
    return False


def _required_init_annotations(node: ast.ClassDef) -> List[str]:
    """Annotation tails of __init__ params that have no default (sans self).

    String annotations (``"Topology"``) are unquoted so forward references
    count the same as direct ones.
    """
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            args = item.args
            positional = args.posonlyargs + args.args
            defaults_start = len(positional) - len(args.defaults)
            out: List[str] = []
            for index, arg in enumerate(positional):
                if index == 0 and arg.arg in ("self", "cls"):
                    continue
                if index >= defaults_start:
                    continue
                if arg.annotation is None:
                    continue
                if isinstance(arg.annotation, ast.Constant) \
                        and isinstance(arg.annotation.value, str):
                    out.append(arg.annotation.value.split(".")[-1])
                    continue
                chain = _attribute_chain(arg.annotation)
                if chain is not None:
                    out.append(chain[-1])
            return out
    return []


def _classlike_names(node: ast.AST) -> Set[str]:
    """Capitalized identifiers referenced anywhere under ``node``."""
    out: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and _CLASSLIKE_RE.match(child.id):
            out.add(child.id)
        elif isinstance(child, ast.Attribute) and _CLASSLIKE_RE.match(child.attr):
            out.add(child.attr)
        elif isinstance(child, ast.alias):
            target = child.asname or child.name
            if _CLASSLIKE_RE.match(target.split(".")[-1]):
                out.add(target.split(".")[-1])
    return out


def _references_registry(tree: ast.Module) -> bool:
    """True when the module imports repro.registry or defines Registry."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("repro.registry", "repro") and any(
                    alias.name in ("registry", "Registry") or node.module == "repro.registry"
                    for alias in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name == "repro.registry" for alias in node.names):
                return True
        elif isinstance(node, ast.ClassDef) and node.name == "Registry":
            return True
    return False


@register_rule
class RegistryCompleteness(ProgramRule):
    """R1: pluggable classes are registered and cache-serializable."""

    rule_id = "R1"
    name = "registry-completeness"
    description = (
        "concrete Router/MarkingScheme/FaultSpec/AttackSpec subclasses must "
        "be registered in repro.registry (classes requiring live "
        "constructor objects the factory signature cannot supply are "
        "exempt); fault, attack, and config specs must define "
        "to_dict/from_dict; registry lookups must raise UnknownNameError, "
        "not KeyError"
    )
    hint = (
        "add a factory + REGISTRY.register(name, factory) next to the class "
        "(or suppress with '# repro-lint: disable=R1' if it cannot be "
        "constructed by name)"
    )

    # -- local check: KeyError misuse (depends on one file only) ----------
    def check(self, ctx: FileContext) -> Iterable[Violation]:
        if ctx.repro_parts is None:
            return
        if not _references_registry(ctx.tree):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            chain = _attribute_chain(target)
            if chain is not None and chain[-1] == "KeyError":
                yield ctx.violation(
                    self, node,
                    "registry-adjacent code raises bare KeyError",
                    hint="raise repro.errors.UnknownNameError(kind, name, "
                         "choices) so callers see the available names",
                )

    # -- per-file fact collection -----------------------------------------
    def collect(self, ctx: FileContext) -> Optional[Dict[str, Any]]:
        if ctx.repro_parts is None:
            return None
        classes: List[Dict[str, Any]] = []
        registered_names: Set[str] = set()
        registered_factories: Set[str] = set()
        factory_bodies: Dict[str, List[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                bases = _base_names(node)
                classes.append({
                    "name": node.name,
                    "line": node.lineno,
                    "col": node.col_offset + 1,
                    "bases": list(bases),
                    "methods": sorted({
                        item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                    }),
                    "abstract": _is_abstract(node, bases),
                    "init_required": _required_init_annotations(node),
                })
                for decorator in node.decorator_list:
                    if isinstance(decorator, ast.Call):
                        chain = _attribute_chain(decorator.func)
                        if chain is not None and chain[-1] == "register":
                            registered_names.add(node.name)
            elif isinstance(node, ast.Call):
                chain = _attribute_chain(node.func)
                if chain is not None and chain[-1] == "register":
                    for arg in list(node.args[1:]) + [kw.value for kw in node.keywords]:
                        ref = _attribute_chain(arg)
                        if ref is None:
                            continue
                        if _CLASSLIKE_RE.match(ref[-1]):
                            registered_names.add(ref[-1])
                        else:
                            registered_factories.add(ref[-1])
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                factory_bodies[node.name] = sorted(_classlike_names(node))
                for decorator in node.decorator_list:
                    if isinstance(decorator, ast.Call):
                        chain = _attribute_chain(decorator.func)
                        if chain is not None and chain[-1] == "register":
                            registered_factories.add(node.name)
        if not (classes or registered_names or registered_factories):
            return None
        return {
            "classes": classes,
            "registered_names": sorted(registered_names),
            "registered_factories": sorted(registered_factories),
            "factory_bodies": factory_bodies,
        }

    # -- cross-file settlement -------------------------------------------
    def settle(self, program: Program) -> Iterable[Violation]:
        facts = program.facts(self.rule_id)
        classes: Dict[str, Dict[str, Any]] = {}
        class_paths: Dict[str, str] = {}
        registered: Set[str] = set()
        factories: Set[str] = set()
        factory_bodies: Dict[str, Set[str]] = {}
        for path in sorted(facts):
            file_facts = facts[path]
            for entry in file_facts.get("classes", ()):
                classes[entry["name"]] = entry
                class_paths[entry["name"]] = path
            registered.update(file_facts.get("registered_names", ()))
            factories.update(file_facts.get("registered_factories", ()))
            for name, body in file_facts.get("factory_bodies", {}).items():
                factory_bodies.setdefault(name, set()).update(body)

        reachable = set(registered)
        for factory in sorted(factories):
            reachable |= factory_bodies.get(factory, set())

        for name in sorted(classes, key=lambda n: (class_paths[n],
                                                   classes[n]["line"])):
            info = classes[name]
            if info["abstract"] or name.startswith("_"):
                continue
            root = self._root_base(name, classes)
            if root is None and name not in SERIALIZED_SPEC_CLASSES:
                continue
            if root in REGISTERED_BASES and name not in reachable \
                    and not self._live_object_exempt(root, info):
                yield Violation(
                    path=class_paths[name], line=info["line"],
                    col=info["col"], rule=self.rule_id,
                    message=(f"concrete {root} subclass {name!r} is not "
                             "registered in repro.registry"),
                    hint=self.hint,
                )
            if (root in SERIALIZED_SPEC_ROOTS
                    or name in SERIALIZED_SPEC_CLASSES):
                missing = [m for m in ("to_dict", "from_dict")
                           if not self._defines(name, m, classes)]
                if missing:
                    yield Violation(
                        path=class_paths[name], line=info["line"],
                        col=info["col"], rule=self.rule_id,
                        message=(f"spec class {name!r} lacks "
                                 f"{'/'.join(missing)} (cache keys rely on "
                                 "the canonical serialization pair)"),
                        hint="derive attack and fault kinds from their "
                             "base so they inherit the dict form of "
                             "repro.util.kindspec.KindSpec; config specs "
                             "implement to_dict() and from_dict()",
                    )

    @staticmethod
    def _live_object_exempt(root: str, info: Dict[str, Any]) -> bool:
        """Does __init__ require a live object the factory can't supply?"""
        unsuppliable = UNSUPPLIABLE_LIVE_TYPES.get(root, ())
        return any(annotation in unsuppliable
                   for annotation in info.get("init_required", ()))

    @staticmethod
    def _root_base(name: str,
                   classes: Dict[str, Dict[str, Any]]) -> Optional[str]:
        """Which tracked base (if any) ``name`` transitively descends from."""
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            info = classes.get(current)
            if info is None:
                if current != name and current in REGISTERED_BASES:
                    return current
                continue
            for base in info["bases"]:
                if base in REGISTERED_BASES:
                    return base
                frontier.append(base)
        return None

    @staticmethod
    def _defines(name: str, method: str,
                 classes: Dict[str, Dict[str, Any]]) -> bool:
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            info = classes.get(current)
            if info is None:
                continue
            if method in info["methods"]:
                return True
            frontier.extend(info["bases"])
        return False
