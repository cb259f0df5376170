import ast
import importlib
import inspect
from pathlib import Path

import pytest

import protcoord

MODULES = ["coordination", "faultcalc", "netmodel", "relaycurve", "studio",
           "ufcl"]


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_module(name):
    module = importlib.import_module(f"protcoord.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"__all__ names nothing: {missing}"
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == module.__name__}
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"public but not in __all__: {unlisted}"


# what each module may import from the package ("__init__": the package
# itself): coordination grades times and tunes dials without the solver
LAYERS = {
    "__init__": set(),
    "relaycurve": set(),
    "netmodel": {"relaycurve"},
    "faultcalc": {"netmodel"},
    "coordination": {"netmodel", "relaycurve"},
    "ufcl": {"faultcalc", "netmodel"},
    "studio": {"__init__", "coordination", "faultcalc", "netmodel",
               "relaycurve", "ufcl"},
}


def test_module_layering():
    got = {}
    for path in Path(protcoord.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        got[path.stem] = {node.module or "__init__"
                          for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) and node.level}
    assert got == LAYERS


def test_no_private_cross_module_imports():
    # a module reaches another only through its public names: neither
    # `from .faultcalc import _nodal` nor `from . import faultcalc` and
    # then `faultcalc._nodal`
    found = []
    for path in Path(protcoord.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append(f"{path.stem}: {alias.name}")
                    if node.module is None and alias.name in MODULES:
                        modules.add(alias.asname or alias.name)
        found += [f"{path.stem}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")]
    assert found == []
