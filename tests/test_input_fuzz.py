"""Fuzz test of the input boundary.

Mutations of the bundled grid (fields dropped, retyped, set to extreme or
non-finite numbers, ids made dangling or duplicate) must end in a
NetworkFormatError from load_network, and in exit 0, 1 or 2 without a
traceback from the command line. The fields come from the loader's own
per-class field table.
"""

import json
import math
import re
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protcoord import bundled_dataset_path
from protcoord.netmodel import (_FIELDS, _RECORDS, NetworkFormatError,
                                UfclSpec, load_network)
from protcoord.studio import SCENARIOS, cli

BUNDLED = json.loads(bundled_dataset_path().read_text())
DROP = object()
IDS = sorted({rec["id"] for key in ("buses", "branches", "relays")
              for rec in BUNDLED[key]})
VALUES = [DROP, None, "x", True, [], {}, ["bus3"], 3, 0, -1.0, math.nan,
          math.inf, -math.inf, 1e300, 1e-300, -1e300, 10**400, "gone",
          "transformer", "to", "to_from", "ieee_very_inverse", *IDS]


def _field_paths() -> list[tuple]:
    """Every field of every bundled record, and the r/x and a/b/c inside."""
    records = [((key, i), cls) for key, cls in _RECORDS.items()
               for i in range(len(BUNDLED[key]))]
    paths = [("s_base_va",)]
    for prefix, cls in records + [(("ufcl",), UfclSpec)]:
        record = _at(BUNDLED, prefix)
        for name, *_ in _FIELDS[cls]:
            paths.append((*prefix, name))
            if isinstance(record.get(name), dict):
                paths += [(*prefix, name, sub) for sub in record[name]]
    return paths


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(mutations) -> dict:
    doc = json.loads(json.dumps(BUNDLED))
    for path, value in mutations:
        try:
            parent = _at(doc, path[:-1])
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or retyped the parent
        if not isinstance(parent, dict):
            continue
        if value is DROP:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return doc


MUTATIONS = st.lists(st.tuples(st.sampled_from(_field_paths()),
                               st.sampled_from(VALUES)),
                     min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(mutations=MUTATIONS, scenario=st.sampled_from(sorted(SCENARIOS)))
# inputs that ended in a traceback, or validated and then failed to run
@example([(("ufcl", "sizing_fault_bus"), ["bus3"])], "s2_dg1_ufcl")
@example([(("branches", 0, "impedance", "r"), 1e-12),
          (("branches", 0, "impedance", "x"), 1e-12)], "s1_dg1")
@example([(("s_base_va",), 1e-300)], "s2_dg1_ufcl")
@example([(("buses", 2, "nominal_voltage"), 400.0)], "s1_dg1")
@example([(("relays", 0, "curve"), "ieee_very_inverse"),
          (("relays", 0, "pickup_a"), 1e-300)], "s0_no_dg")
@example([(("relays", 1, "curve", "c"), 1e-300)], "s0_no_dg")
@example([(("relays", 1, "curve"), {"a": 1e300, "b": 1e300, "c": 1e300})],
         "s0_no_dg")
@example([(("branches", 0, "impedance"), {"r": True, "x": False})],
         "s1_dg1")
@example([(("buses", 0, "nominal_voltage"), 10**400)], "s0_no_dg")
def test_mutated_grid_ends_cleanly(mutations, scenario):
    text = json.dumps(_mutated(mutations))
    try:
        load_network(text)
    except NetworkFormatError:
        pass

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(text)
        for command in (["validate"], ["run", "--scenario", scenario],
                        ["size-ufcl", "--fault-bus", "bus3"]):
            result = CliRunner().invoke(cli, [*command, "--network",
                                              str(path)])
            shown = f"{command[0]}:\n{result.output}"
            assert result.exit_code in (0, 1, 2), shown
            assert result.exception is None or isinstance(
                result.exception, SystemExit), shown
            assert "Traceback" not in result.output, shown
            if result.exit_code == 1:
                errors = [ln for ln in result.output.splitlines()
                          if ln.startswith("error:")]
                assert len(errors) == 1, shown
            else:
                assert not re.search(r"\b(nan|inf)\b", result.output,
                                     re.I), shown
