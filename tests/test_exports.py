"""Every name a module exports through ``__all__`` must resolve, so deleting a
public function cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mongelight

MODULES = ["mongelight"] + [
    f"mongelight.{info.name}" for info in pkgutil.iter_modules(mongelight.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_no_scalar_jets_in_the_package(module_name):
    # the scalar jets are the tests' reference (tests/_jets.py); the library
    # runs plain floats, the first-order lane and JetStack
    module = importlib.import_module(module_name)
    assert [name for name in ("Jet1", "Jet2", "seed") if hasattr(module, name)] == []


# the domain rules' messages (autodiff's rule functions), each written in one
# string literal: a second copy of a rule would have to repeat its message
RULE_MESSAGES = (
    " of non-positive value ",
    "division by zero",
    "fractional power ",
    "zero raised to a negative power",
    "power with variable exponent needs a positive base",
    "abs is not differentiable at 0",
    " is not twice differentiable at 0",
)


def string_literals(tree: ast.AST) -> list[str]:
    """Every str constant of the tree but docstrings, f-string parts included."""
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, documented)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    ]


@pytest.mark.parametrize("message", RULE_MESSAGES)
def test_each_domain_rule_message_written_once(message):
    package = Path(mongelight.__file__).parent
    found = [
        path.name
        for path in sorted(package.glob("*.py"))
        for text in string_literals(ast.parse(path.read_text()))
        if message in text
    ]
    assert found == ["autodiff.py"]


def test_outside_domain_written_once_in_the_one_point_rule():
    # the stacked gate only admits; every refusal of the domain is the
    # one-point rule's, so its message has one owner
    package = Path(mongelight.__file__).parent
    found = [
        path.name
        for path in sorted(package.glob("*.py"))
        for text in string_literals(ast.parse(path.read_text()))
        if "outside domain" in text
    ]
    assert found == ["mongecore.py"]
    tree = ast.parse((package / "mongecore.py").read_text())
    (rule,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_point_error"
    ]
    assert string_literals(rule).count("outside domain") == 1


POINT_MESSAGES = (
    "point is not a sequence",
    "point is not a number",
    "point is not finite",
    " coordinates; chart has ",
)


@pytest.mark.parametrize("message", POINT_MESSAGES)
def test_point_messages_written_once_in_the_chart_reader(message):
    # a base point becomes floats in one rule, CoordinateChart.read, which
    # classify, the generator, the per-point functions and metric_jets_at
    # all ask, so its messages have one owner
    package = Path(mongelight.__file__).parent
    found = [
        path.name
        for path in sorted(package.glob("*.py"))
        for text in string_literals(ast.parse(path.read_text()))
        if message in text
    ]
    assert found == ["exprlang.py"]
