"""Deploy it or delete it: every layer and parameter a stack can name is used.

Core ships each node an XML description of its stack (paper §3.3), so
every layer the registry resolves and every parameter a layer reads is
surface a coordinator reaches over the wire.  Each one must be used by
the code that builds stacks — ``src/repro`` and ``examples/``, not the
tests:

* **a registered layer is deployed** — some code outside the layer's
  own class names it in a ``LayerSpec("name", ...)`` or builds it as
  ``XLayer(...)``;
* **a parameter a layer reads is set** — each key read through
  ``layer.params.get("key", ...)`` is set somewhere in that code as a
  dict key, a keyword argument or a subscript store.

A layer resolves only once its module has been imported, so the gate
imports every ``repro`` module first.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.kernel.layer import Layer
from repro.kernel.registry import (register_layer, registered_layers,
                                   unregister_layer)

REPO = Path(repro.__file__).resolve().parents[2]
#: Where stacks are built: the package and its examples.
DEPLOYING_ROOTS = (REPO / "src" / "repro", REPO / "examples")


def import_every_module() -> None:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


def package_layers() -> list[tuple[str, type[Layer]]]:
    """The registered layers the package defines (test modules register
    fixtures of their own)."""
    return [(name, cls) for name, cls in registered_layers()
            if cls.__module__.startswith("repro.")]


def deploying_sources() -> dict[Path, ast.AST]:
    return {path.resolve(): ast.parse(path.read_text(encoding="utf-8"))
            for root in DEPLOYING_ROOTS for path in root.rglob("*.py")}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _text(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def deployments(tree: ast.AST) -> set[tuple[str, frozenset[str]]]:
    """``(deployed, enclosing classes)`` of each layer name in a
    ``LayerSpec(...)`` call and each callee named like a class."""
    found, nodes = set(), [(tree, frozenset())]
    while nodes:
        node, classes = nodes.pop()
        inner = classes | {node.name} if isinstance(node, ast.ClassDef) \
            else classes
        nodes.extend((child, inner) for child in ast.iter_child_nodes(node))
        if not isinstance(node, ast.Call):
            continue
        callee = _callee(node)
        if callee == "LayerSpec":
            named = [node.args[0]] if node.args else []
            named += [k.value for k in node.keywords if k.arg == "name"]
            found.update((name, classes)
                         for name in filter(None, map(_text, named)))
        elif callee is not None:
            found.add((callee, classes))
    return found


def keys_read(tree: ast.AST) -> set[str]:
    """Keys read as ``<x>.params.get("key", ...)``."""
    return {_text(node.args[0]) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and node.args
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "params"} - {None}


def keys_set(tree: ast.AST) -> set[str]:
    """String dict keys, keyword arguments and subscript stores.

    A keyword that forwards a same-named variable (``k=k``) sets nothing
    by itself: its value is set, if at all, where the variable's is.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            found.update(filter(None, map(_text, node.keys)))
        elif isinstance(node, ast.keyword) and node.arg:
            if not (isinstance(node.value, ast.Name)
                    and node.value.id == node.arg):
                found.add(node.arg)
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Store):
            found.add(_text(node.slice))
    return found - {None}


def undeployed_layers(layers, sources: dict[Path, ast.AST]) -> list[str]:
    """Names of the ``(name, class)`` pairs that no code outside the
    class itself deploys."""
    found = set().union(*map(deployments, sources.values()))
    return sorted(
        name for name, cls in layers
        if not any(deployed in (name, cls.__name__)
                   and cls.__name__ not in classes
                   for deployed, classes in found))


def unset_keys(sources: dict[Path, ast.AST]) -> list[str]:
    """Keys some layer reads that no deploying code sets."""
    read = set().union(*map(keys_read, sources.values()))
    written = set().union(*map(keys_set, sources.values()))
    return sorted(read - written)


# Gathered at collection, so that each layer and each key is a case of
# its own and a failure names it.
import_every_module()
_SOURCES = deploying_sources()
_LAYERS = package_layers()
_KEYS_READ = sorted(set().union(*map(keys_read, _SOURCES.values())))


@pytest.fixture(scope="module")
def sources() -> dict[Path, ast.AST]:
    return _SOURCES


@pytest.fixture(scope="module")
def keys_written(sources) -> set[str]:
    return set().union(*map(keys_set, sources.values()))


class TestDeployed:
    @pytest.mark.parametrize("name, cls", _LAYERS,
                             ids=[name for name, _ in _LAYERS])
    def test_the_layer_is_deployed(self, sources, name, cls):
        assert undeployed_layers([(name, cls)], sources) == [], \
            f"{name} is deployed by nothing"

    @pytest.mark.parametrize("key", _KEYS_READ)
    def test_the_parameter_is_set(self, keys_written, key):
        assert key in keys_written, f"{key} is read, but set by nothing"

    def test_the_gate_sees_the_layers_and_keys_it_checks(self):
        # An empty scan would pass every case above by having none.
        assert {"beb", "heartbeat", "membership"} <= \
            {name for name, _ in _LAYERS}
        assert {"interval", "members", "nack_interval"} <= set(_KEYS_READ)


# -- the gate fails when it should --------------------------------------------

#: A layer the package would register, deployed by nothing.
_UndeployedLayer = type("_UndeployedLayer", (Layer,), {
    "layer_name": "undeployed_self_test", "__module__": "repro.self_test"})


SELF_TEST = Path("<self-test>")
READS_AN_UNSET_KEY = """
class Session:
    def __init__(self, layer):
        self.knob = layer.params.get("knob_no_stack_sets", 1)
"""


class TestTheGateFails:
    def test_on_a_layer_registered_with_no_deployer(self, sources):
        register_layer(_UndeployedLayer)
        try:
            assert "undeployed_self_test" in \
                undeployed_layers(package_layers(), sources)
        finally:
            unregister_layer("undeployed_self_test")

    def test_on_a_parameter_no_code_sets(self, sources):
        tree = ast.parse(READS_AN_UNSET_KEY)
        assert "knob_no_stack_sets" in \
            unset_keys({**sources, SELF_TEST: tree})

    @pytest.mark.parametrize("deployer", [
        'LayerSpec("undeployed_self_test")',
        'LayerSpec(name="undeployed_self_test", params={})',
        "_UndeployedLayer()"])
    def test_a_deployer_elsewhere_passes_the_layer(self, sources, deployer):
        layer = [("undeployed_self_test", _UndeployedLayer)]
        assert undeployed_layers(layer, sources) == ["undeployed_self_test"]
        deployed = {**sources, SELF_TEST: ast.parse(deployer)}
        assert undeployed_layers(layer, deployed) == []

    def test_its_own_class_body_does_not_deploy_a_layer(self, sources):
        own = ("class _UndeployedLayer:\n"
               "    def copy(self):\n"
               "        return _UndeployedLayer()\n")
        layer = [("undeployed_self_test", _UndeployedLayer)]
        trees = {**sources, SELF_TEST: ast.parse(own)}
        assert undeployed_layers(layer, trees) == ["undeployed_self_test"]

    @pytest.mark.parametrize("setter", [
        '{"knob_no_stack_sets": 2}', "Layer(knob_no_stack_sets=2)",
        'params["knob_no_stack_sets"] = 2'])
    def test_a_setter_passes_the_parameter(self, sources, setter):
        trees = {**sources, SELF_TEST: ast.parse(READS_AN_UNSET_KEY)}
        assert "knob_no_stack_sets" in unset_keys(trees)
        trees[Path("<setter>")] = ast.parse(setter)
        assert "knob_no_stack_sets" not in unset_keys(trees)

    def test_forwarding_a_same_named_variable_sets_nothing(self, sources):
        forward = "Layer(knob_no_stack_sets=knob_no_stack_sets)"
        trees = {**sources, SELF_TEST: ast.parse(READS_AN_UNSET_KEY),
                 Path("<forward>"): ast.parse(forward)}
        assert "knob_no_stack_sets" in unset_keys(trees)
