"""Every name a module exports resolves, so a deleted name cannot linger in
an `__all__`; every public name has a caller in the package or an owner; and
no module imports its own package by name."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nbbm

MODULES = ["nbbm"] + [f"nbbm.{m.name}"
                      for m in pkgutil.iter_modules(nbbm.__path__)]

# The public names that no code in src/nbbm references, each beside what
# keeps it: the ROADMAP item that is to call it, or the test that pins
# behaviour through it.  A name that gains a caller, or goes, leaves.
OWNED = {
    "levy.x_alpha": "ROADMAP item 9",
    "levy.jump_tail": "ROADMAP items 8 and 18",
    "levy.jump_density": "ROADMAP items 8 and 18",
    "levy.increment_var_rate": "ROADMAP item 8",
    "ensemble.killed_ensemble": "ROADMAP item 5",
    "stats.oracle_R": "ROADMAP item 5",
    "stats.oracle_N": "ROADMAP item 5",
    "stats.l1_vs_meta": "ROADMAP item 5",
    "stats.load_calibration": "ROADMAP item 5",
    "kernels.meta_density": "ROADMAP item 5",
    "runio.load_population": "ROADMAP item 19",
    "ensemble.bridge_hit_prob":
        "tests/test_engine.py::test_wall_hits_draw_against_bridge_hit_prob",
    "runio.fmt_real":
        "tests/test_runio.py::test_series_csv_renders_each_cell_as_fmt_real",
}


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


def _public_names(tree: ast.Module) -> list[str]:
    """The module's `__all__`, or where it has none its top-level functions
    and classes whose names do not start with an underscore."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return [n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


def test_every_public_name_has_a_caller_or_an_owner():
    # static: which paths a CLI run reaches depends on its sample path
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in Path(nbbm.__file__).parent.glob("*.py")}
    uses: dict[str, list[tuple[str, int]]] = {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((mod, node.lineno))
    orphans = set()
    for mod, tree in trees.items():
        spans = {n.name: range(n.lineno, n.end_lineno + 1) for n in tree.body
                 if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for name in _public_names(tree):
            # a use inside the name's own definition is no caller
            own = spans.get(name, range(0))
            if all(m == mod and line in own for m, line in uses.get(name, [])):
                orphans.add(f"{mod}.{name}")
    unowned, stale = orphans - OWNED.keys(), OWNED.keys() - orphans
    assert not unowned, f"no caller in src/nbbm and no OWNED entry: {unowned}"
    assert not stale, f"OWNED names that have a caller or are gone: {stale}"
