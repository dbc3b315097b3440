"""Every name a module exports resolves, so a deleted name cannot linger in
an `__all__`; and no module imports its own package by name."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("name", MODULES)
def test_modules_import_their_package_relatively(name):
    # an absolute `nbbm` import binds a copy of the package loaded under
    # another name (benchmarks/ab.py's baseline) to the library's modules
    path = Path(importlib.import_module(name).__file__)
    absolute = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        absolute += [f"line {node.lineno}: {n}" for n in names
                     if n.split(".")[0] == "nbbm"]
    assert not absolute, f"{path.name} imports nbbm by name: {absolute}"
