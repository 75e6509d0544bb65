"""Every module's ``__all__`` names what the module defines."""

import importlib

import pytest

MODULES = ["chains", "dynamics", "fidelity", "ed", "mirror", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spinbus.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"spinbus.{name}.__all__ names missing attributes {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from spinbus.{name} import *", namespace)
    module = importlib.import_module(f"spinbus.{name}")
    assert set(module.__all__) <= set(namespace)
