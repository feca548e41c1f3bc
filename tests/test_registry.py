"""Unit tests for the string -> factory registries."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import cli, registry
from repro.attack.scenario import AttackCampaign, AttackSpec
from repro.core.config import MarkingSpec, RoutingSpec, SelectionSpec, TopologySpec
from repro.errors import ConfigurationError, UnknownNameError
from repro.faults.campaign import FaultCampaign, FaultSpec
from repro.marking.base import MarkingScheme
from repro.routing.base import Router
from repro.routing.selection import SelectionPolicy
from repro.routing.table import TableRouter
from repro.topology import Mesh
from repro.topology.base import Topology
from tests.test_spec_cache_key import CORPUS


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestRegistryMechanics:
    def test_register_create_names(self):
        reg = registry.Registry("widget")
        reg.register("a", lambda: "made-a")
        assert reg.create("a") == "made-a"
        assert reg.names() == ("a",)
        assert "a" in reg and "b" not in reg
        assert len(reg) == 1 and list(reg) == ["a"]

    def test_decorator_form(self):
        reg = registry.Registry("widget")

        @reg.register("fancy")
        def make_fancy():
            return "fancy!"

        assert reg.create("fancy") == "fancy!"
        assert make_fancy() == "fancy!"   # decorator returns the factory

    def test_duplicate_rejected(self):
        reg = registry.Registry("widget")
        reg.register("a", lambda: 1)
        with pytest.raises(ConfigurationError):
            reg.register("a", lambda: 2)

    def test_bad_name_rejected(self):
        reg = registry.Registry("widget")
        with pytest.raises(ConfigurationError):
            reg.register("", lambda: 1)
        with pytest.raises(ConfigurationError):
            reg.register(3, lambda: 1)

    def test_unknown_create_lists_known(self):
        reg = registry.Registry("widget")
        reg.register("a", lambda: 1)
        with pytest.raises(ConfigurationError, match="known: a"):
            reg.create("b")

    def test_unregister(self):
        reg = registry.Registry("widget")
        reg.register("a", lambda: 1)
        reg.unregister("a")
        assert "a" not in reg
        with pytest.raises(ConfigurationError):
            reg.unregister("a")


class TestBuiltinCoverage:
    """Every name the CLI exposes builds through spec -> registry."""

    @pytest.mark.parametrize("name", cli.ROUTING_CHOICES)
    def test_every_cli_routing_builds(self, name, rng):
        router = RoutingSpec(name).build(rng)
        assert isinstance(router, Router)

    @pytest.mark.parametrize("name", cli.MARKING_CHOICES)
    def test_every_cli_marking_builds(self, name, rng):
        scheme = MarkingSpec(name, probability=0.1).build(rng, Mesh((4, 4)))
        assert isinstance(scheme, MarkingScheme)

    @pytest.mark.parametrize("name", cli.TOPOLOGY_CHOICES)
    def test_every_cli_topology_builds(self, name):
        dims = (3,) if name == "hypercube" else (4, 4)
        assert isinstance(TopologySpec(name, dims).build(), Topology)

    def test_cli_choices_track_registry(self):
        assert set(cli.ROUTING_CHOICES) == set(registry.ROUTING.names())
        assert set(cli.MARKING_CHOICES) == set(registry.MARKING.names()) - {"none"}
        assert set(cli.TOPOLOGY_CHOICES) == set(registry.TOPOLOGY.names())

    @pytest.mark.parametrize("name", ["first", "random", "least-congested"])
    def test_selection_names_registered(self, name):
        assert name in registry.SELECTION

    def test_selection_builds(self, rng):
        assert isinstance(SelectionSpec("first").build(rng), SelectionPolicy)
        assert isinstance(SelectionSpec("random").build(rng), SelectionPolicy)

    def test_marking_none_builds_none(self, rng):
        assert registry.MARKING.create("none", rng, None, 0.0) is None

    @pytest.mark.parametrize("name", cli.ROUTING_CHOICES)
    def test_roundtrip_every_routing_name(self, name):
        spec = RoutingSpec.from_dict(RoutingSpec(name).to_dict())
        assert spec.name == name

    @pytest.mark.parametrize("name", cli.MARKING_CHOICES)
    def test_roundtrip_every_marking_name(self, name):
        spec = MarkingSpec.from_dict(MarkingSpec(name, probability=0.3).to_dict())
        assert spec.name == name and spec.probability == 0.3


class TestExtensibility:
    def test_registered_scheme_reaches_config_build(self, rng):
        """One registration point: a new marking name becomes buildable
        from a MarkingSpec with no dispatch edits."""
        from repro.marking.ddpm import DdpmScheme

        registry.MARKING.register("test-ddpm-alias",
                                  lambda rng, topology, probability: DdpmScheme())
        try:
            scheme = MarkingSpec("test-ddpm-alias").build(rng)
            assert isinstance(scheme, DdpmScheme)
        finally:
            registry.MARKING.unregister("test-ddpm-alias")

    def test_deterministic_routing_set(self):
        assert registry.DETERMINISTIC_ROUTING == {"xy", "dor"}
        assert not RoutingSpec("xy").is_adaptive
        assert RoutingSpec("valiant").is_adaptive


# ----------------------------------------------------------------------
# Completeness: checked on the live classes, so a class counts as
# registered only when some registry name builds exactly that type.
#: concrete classes no registry name builds, and why.
UNREGISTERED = {TableRouter: "its tables are built for one live topology"}


def _concrete_subclasses(base):
    """Non-abstract, public subclasses of ``base`` defined under repro."""
    found, frontier = set(), [base]
    while frontier:
        for cls in frontier.pop().__subclasses__():
            frontier.append(cls)
            if (not inspect.isabstract(cls) and not cls.__name__.startswith("_")
                    and cls.__module__.split(".")[0] == "repro"):
                found.add(cls)
    return found


def _raises_key_error(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name) and target.id == "KeyError":
                return True
    return False


def _imports_registry(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name == "repro.registry" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
                node.module == "repro.registry" or node.module == "repro"
                and any(alias.name == "registry" for alias in node.names)):
            return True
    return False


@pytest.fixture(scope="module")
def concrete():
    """Concrete classes per base, after importing every repro module."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        # repro/__main__.py calls sys.exit when imported.
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    return {base: _concrete_subclasses(base)
            for base in (Router, MarkingScheme, FaultSpec, AttackSpec)}


class TestRegistryCompleteness:
    """Every concrete router, marking scheme, fault kind and attack kind
    under repro is reachable by name, the specs carry their dict form, and
    an unknown name raises UnknownNameError, never a bare KeyError."""

    def test_every_concrete_class_is_built_by_a_name(self, concrete, rng):
        built = {type(RoutingSpec(name).build(rng)) for name in registry.ROUTING}
        built |= {type(MarkingSpec(name, probability=0.1).build(rng, Mesh((4, 4))))
                  for name in registry.MARKING}
        # The cache-key corpus holds one spec of every fault and attack kind.
        for reg, campaign in ((registry.FAULTS, "faults"),
                              (registry.ATTACKS, "attacks")):
            built |= {type(reg.create(entry["kind"], entry))
                      for entry in CORPUS[campaign]["specs"]}
        assert set().union(*concrete.values()) - built == set(UNREGISTERED)

    def test_specs_define_the_serialization_pair(self, concrete):
        # The config specs ride in the cache key next to the fault and
        # attack kinds.
        specs = concrete[FaultSpec] | concrete[AttackSpec] | {
            TopologySpec, RoutingSpec, SelectionSpec, MarkingSpec}
        missing = sorted((cls.__name__, method) for cls in specs
                         for method in ("to_dict", "from_dict")
                         if not callable(getattr(cls, method, None)))
        assert missing == []

    @pytest.mark.parametrize("table", ["ROUTING", "MARKING", "TOPOLOGY",
                                       "SELECTION", "FAULTS", "ATTACKS"])
    def test_unknown_name_in_create(self, table):
        reg = getattr(registry, table)
        with pytest.raises(UnknownNameError) as err:
            reg.create("no-such-name")
        assert err.value.choices == reg.names()

    @pytest.mark.parametrize("parse,data", [
        (TopologySpec.from_dict, {"kind": "no-such-name", "dims": [4, 4]}),
        (RoutingSpec.from_dict, {"name": "no-such-name"}),
        (SelectionSpec.from_dict, {"name": "no-such-name"}),
        (MarkingSpec.from_dict, {"name": "no-such-name"}),
        (FaultCampaign.from_dict, {"specs": [{"kind": "no-such-name"}]}),
        (AttackCampaign.from_dict, {"specs": [{"kind": "no-such-name"}]}),
        (AttackCampaign.from_dict, {"specs": [{"kind": "mix", "components": [
            {"kind": "no-such-name"}]}]}),
    ], ids=["topology", "routing", "selection", "marking", "faults",
            "attacks", "mix-component"])
    def test_unknown_name_in_from_dict(self, parse, data):
        with pytest.raises(UnknownNameError):
            parse(data)

    def test_registry_modules_raise_no_bare_key_error(self):
        package = Path(repro.__file__).parent
        offenders = []
        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if ((path == package / "registry.py" or _imports_registry(tree))
                    and _raises_key_error(tree)):
                offenders.append(str(path.relative_to(package)))
        assert offenders == []
