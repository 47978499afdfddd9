"""Every name a module exports through ``__all__`` must resolve, so deleting a
public function cannot leave a stale export behind."""

import importlib
import pkgutil

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
