"""Every name a module exports resolves, so a deleted name cannot linger in
an `__all__`."""

import importlib
import pkgutil

import pytest

import nbbm

MODULES = ["nbbm"] + [f"nbbm.{m.name}"
                      for m in pkgutil.iter_modules(nbbm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"
    assert len(set(exported)) == len(exported)
