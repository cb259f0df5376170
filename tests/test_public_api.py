import ast
import importlib
import inspect
import re
import subprocess
import sys
from dataclasses import is_dataclass
from pathlib import Path

import numpy
import pytest

import protcoord
from conftest import bench_module, package_env
from protcoord import faultcalc
from protcoord.faultcalc import FaultResult
from protcoord.netmodel import _RECORDS, Network, UfclSpec
from protcoord.relaycurve import CurveConstants

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


ROOT = Path(__file__).resolve().parent.parent


def assigned(tree: ast.Module, name: str, default=None):
    """The literal a module binds to `name` at top level, else default."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return default


def test_all_names_are_defined_in_their_module():
    # __all__ lists what a module defines, not what it re-exports
    found = []
    for path in Path(protcoord.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined |= {n.id for n in ast.walk(node)
                            if isinstance(n, ast.Name)
                            and isinstance(n.ctx, ast.Store)}
        found += [f"{path.stem}: {name}"
                  for name in assigned(tree, "__all__", [])
                  if name not in defined]
    assert found == []


def test_every_import_is_used():
    found = []
    for folder in ("src/protcoord", "tests", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        imported[name] = node.lineno
                elif (isinstance(node, ast.ImportFrom)
                      and node.module != "__future__"):
                    for alias in node.names:
                        imported[alias.asname or alias.name] = node.lineno
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            used |= set(assigned(tree, "__all__", []))
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for name, line in imported.items() if name not in used]
    assert found == []


# tracer sites naming a function the package no longer has (ufcl lost
# classify_fault_side to downstream_buses, and studio reads the bare-grid
# target from the study's own states, so it no longer imports solve_fault);
# re-pointing them is bench work, and a site that resolves again leaves
# this set
STALE_BENCH_SITES = {("protcoord.studio", "classify_fault_side"),
                     ("protcoord.ufcl", "classify_fault_side"),
                     ("protcoord.studio", "solve_fault")}


def test_bench_tracer_sites_resolve():
    # the traced bench wraps each layer at the module attribute its callers
    # look it up by; a site that no longer resolves reads as a 0 metric, or
    # fails the run where the bench indexes its spans
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(
        encoding="utf-8"))
    unresolved = {(mod, attr) for mod, attr, _ in assigned(tree, "SITES")
                  if not callable(getattr(importlib.import_module(mod),
                                          attr, None))}
    assert unresolved == STALE_BENCH_SITES


def test_bench_tracer_installs():
    # the traced bench wraps np.linalg through faultcalc.np, a name that
    # faultcalc resolves on read and never binds itself, so that importing
    # the studio leaves numpy unloaded; a broken read would show only when
    # the traced bench runs
    tracer = bench_module("tracer").Tracer()
    tracer.install()
    try:
        assert faultcalc.np.linalg.solve.__wrapped__ is numpy.linalg.solve
    finally:
        tracer.uninstall()
    assert vars(faultcalc).pop("np") is numpy  # as uninstall put it back
    assert faultcalc.np is numpy
    with pytest.raises(AttributeError, match="has no attribute 'numpy'"):
        faultcalc.numpy
    code = "import sys, protcoord.studio; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=package_env())
    assert proc.stdout == "False\n"


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


# functions that only check the loaded records: a field read nowhere else
# reaches no computed number; a FaultResult field that no module reads is
# computed for nothing
CHECKS_ONLY = {"validate", "_dangling_references", "_duplicate_ids"}


def test_every_loaded_field_is_read():
    reads = set()
    for path in Path(protcoord.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        checks = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name in CHECKS_ONLY
                  for node in ast.walk(fn)}
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and id(node) not in checks}
    records = (*_RECORDS.values(), UfclSpec, CurveConstants, Network,
               FaultResult)
    unread = [f"{cls.__name__}.{name}" for cls in records
              for name in cls._fields if name not in reads]
    assert unread == []


# records that nothing rebuilds with dataclasses.replace or caches a value
# on are NamedTuples, cheaper to build and to define; each keeps its field
# names in this order, which positional constructions such as
# CurveConstants(0.14, 0.0, 0.02) and Bus("x1", 20000.0) rely on
VALUE_RECORDS = {
    "netmodel.Bus": ("id", "nominal_voltage"),
    "netmodel.Branch": ("id", "from_bus", "to_bus", "kind", "impedance",
                        "referred_side"),
    "netmodel.Source": ("id", "bus", "kind", "internal_impedance", "emf_pu"),
    "netmodel.ShuntLoad": ("id", "bus", "impedance"),
    "netmodel.RelaySpec": ("id", "branch", "pickup_a", "tds", "curve"),
    "netmodel.CoordinationPair": ("main", "backup", "fault_bus"),
    "netmodel.UfclSpec": ("tie_branch", "r_normal", "sizing_fault_bus",
                          "sizing_reference_a"),
    "netmodel.Network": ("buses", "branches", "sources", "loads", "relays",
                         "pairs", "ufcl", "s_base_va"),
    "relaycurve.CurveConstants": ("a", "b", "c"),
    "studio.Scenario": ("id", "dg_in_service", "ufcl_enabled", "fault_buses",
                        "induction"),
    "studio.RelayReading": ("relay", "current_a", "time_s"),
    "coordination.CoordinationRow": (
        "fault_bus", "main", "backup", "i_main_a", "i_backup_a", "t_main_s",
        "t_backup_s", "cti_s", "verdict"),
    "coordination.CoordinationReport": ("rows",),
    "ufcl.SizingResult": ("r_star", "achieved_current_a", "target_current_a",
                          "iterations"),
    "faultcalc.LevelMap": ("a", "b", "d"),
    "faultcalc.FaultSpec": ("bus",),
    "faultcalc.FaultResult": ("fault_bus", "fault_current_a",
                              "relay_currents"),
    "faultcalc.OracleResult": ("fault_bus", "fault_current_a",
                               "relay_currents", "bus_voltages_pu",
                               "fault_current_c", "branch_currents"),
    "netmodel.PuNetwork": ("net", "z_base", "i_base", "branch_z_pu",
                           "source_z_pu", "load_z_pu"),
    "netmodel.Violation": ("rule", "subject", "message"),
}
# records the bench rebuilds with dataclasses.replace: its self-check,
# perfbench/worker.bump_first_current, rebuilds FaultTable and StudyReport
DATACLASS_RECORDS = {"studio.FaultTable", "studio.StudyReport"}


def test_record_kinds():
    records = {f"{name}.{cls.__name__}": cls for name in MODULES
               for cls in vars(importlib.import_module(f"protcoord.{name}"))
               .values()
               if inspect.isclass(cls) and cls.__module__ == f"protcoord.{name}"
               and (is_dataclass(cls) or issubclass(cls, tuple))}
    assert {n for n, cls in records.items() if is_dataclass(cls)} \
        == DATACLASS_RECORDS
    assert all(records[n].__dataclass_params__.frozen
               for n in DATACLASS_RECORDS)
    assert {n for n, cls in records.items() if issubclass(cls, tuple)} \
        == set(VALUE_RECORDS)
    for name, names in VALUE_RECORDS.items():
        record = records[name](*range(len(names)))
        assert record._fields == names
        with pytest.raises(AttributeError):
            setattr(record, names[0], None)


# a fresh interpreter that imports every module but the studio, says which
# of dataclasses and inspect that loaded, then names the dataclasses the
# studio defines
RECORD_PROBE = """\
import sys
import protcoord.coordination, protcoord.faultcalc, protcoord.netmodel
import protcoord.relaycurve, protcoord.ufcl
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
import dataclasses, protcoord.studio as studio
print(sorted(n for n, cls in vars(studio).items() if isinstance(cls, type)
             and cls.__module__ == studio.__name__
             and dataclasses.is_dataclass(cls)))
"""


def test_only_the_studio_imports_dataclasses():
    # defining a dataclass, and importing dataclasses and the inspect it
    # imports, cost a `protcoord run` process milliseconds a NamedTuple
    # does not
    proc = subprocess.run([sys.executable, "-c", RECORD_PROBE],
                          capture_output=True, text=True, check=True,
                          env=package_env())
    assert proc.stdout.splitlines() == [
        "[]", str(sorted(n.split(".")[1] for n in DATACLASS_RECORDS))]


def test_readme_python_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```python\n(.*?)```", readme, re.S)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert [r.fault_bus for r in names["at_r"]] == ["bus3"]
    assert names["bare"] > 0
    # as golden size_ufcl_bus3.txt reads
    assert (names["sizing"].r_star, names["sizing"].iterations) == (200.0, 10)
    assert capsys.readouterr().out.startswith("# Scenario s2_dg1_ufcl\n")
