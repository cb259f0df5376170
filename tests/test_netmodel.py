import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_radial_net
from protcoord import bundled_dataset_path
from protcoord.netmodel import (Branch, Bus, Network, NetworkFormatError,
                                ShuntLoad, Source, UfclSpec, load_network,
                                partition_by_tie, to_per_unit, validate)

MINIMAL = json.dumps({
    "buses": [{"id": "a", "nominal_voltage": 20000.0}],
    "sources": [{"id": "g", "bus": "a", "kind": "infinite_grid",
                 "internal_impedance": {"r": 1.0, "x": 4.0}}],
})


def test_minimal_document():
    net = load_network(MINIMAL)
    assert len(net.buses) == 1
    assert net.sources[0].emf_pu == 1.0  # default applied
    assert validate(net) == []


def test_bundled_dataset_shape(bundled_net):
    net = bundled_net
    assert len(net.buses) == 7
    assert len(net.relays) == 6
    assert sum(1 for s in net.sources if s.kind != "infinite_grid") == 2
    assert len(net.pairs) == 4
    assert net.ufcl is not None and net.ufcl.r_normal == 0.0
    r1 = net.relay_by_id("relay1")
    assert (r1.pickup_a, r1.tds) == (610.0, 0.6)


def test_bundled_dataset_validates_clean(bundled_net):
    assert validate(bundled_net) == []


@pytest.mark.parametrize("r_limit, downstream_end", [
    (200.0, "bus5"), (-1.0, "bus2"), (0.0, "gone9")],
    ids=["consistent", "grid_side_and_negative", "dangling"])
def test_retired_ufcl_keys_are_ignored(bundled_net, r_limit, downstream_end):
    # files written when the limiter block also named a limiting resistance
    # and a downstream tie end load as if neither key were there
    doc = json.loads(bundled_dataset_path().read_text())
    doc["ufcl"].update(r_limit=r_limit, downstream_end=downstream_end)
    net = load_network(json.dumps(doc))
    assert net == bundled_net
    assert validate(net) == []


def test_readme_network_example_validates_clean():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    assert validate(load_network(example)) == []


def test_parse_error_carries_line():
    with pytest.raises(NetworkFormatError, match=r"line 2"):
        load_network('{\n  "buses": [,]\n}')


def test_missing_field_carries_locus():
    doc = json.loads(MINIMAL)
    del doc["buses"][0]["nominal_voltage"]
    with pytest.raises(NetworkFormatError, match=r"buses\[0\]"):
        load_network(json.dumps(doc))


@pytest.mark.parametrize("records, locus", [
    ({"buses": [3]}, r"buses\[0\]: must be an object"),
    ({"loads": ["id"]}, r"loads\[0\]: must be an object"),
    ({"ufcl": [1]}, r"ufcl: must be an object"),
])
def test_non_object_record_carries_locus(records, locus):
    doc = dict(json.loads(MINIMAL), **records)
    with pytest.raises(NetworkFormatError, match=locus):
        load_network(json.dumps(doc))


@pytest.mark.parametrize("text, message", [
    ("[]", "document root must be an object"),
    ('{"buses": {}}', "buses: must be an array"),
], ids=["root_not_object", "records_not_array"])
def test_document_shape_is_named(text, message):
    with pytest.raises(NetworkFormatError, match=message):
        load_network(text)


@pytest.mark.parametrize("path, locus", [
    (("buses", 0, "nominal_voltage"), r"buses\[0\]: nominal_voltage"),
    (("sources", 0, "emf_pu"), r"sources\[0\]: emf_pu"),
    (("sources", 0, "internal_impedance", "x"), r"sources\[0\]: x"),
])
def test_non_numeric_field_carries_locus(path, locus):
    doc = json.loads(MINIMAL)
    *parents, name = path
    target = doc
    for key in parents:
        target = target[key]
    for value in ("x", True):  # booleans are not numbers
        target[name] = value
        with pytest.raises(NetworkFormatError, match=locus):
            load_network(json.dumps(doc))


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", math.inf, math.nan],
                         ids=["text_inf", "text_minus_inf", "text_nan",
                              "json_infinity", "json_nan"])
def test_non_finite_field_carries_locus(value):
    doc = json.loads(MINIMAL)
    doc["sources"][0]["internal_impedance"]["r"] = value
    with pytest.raises(NetworkFormatError,
                       match=r"sources\[0\]: r must be a finite number"):
        load_network(json.dumps(doc))


def _referring_doc():
    """MINIMAL plus one record of every kind that refers to another id."""
    doc = json.loads(MINIMAL)
    doc["buses"].append({"id": "b", "nominal_voltage": 20000.0})
    doc["branches"] = [{"id": "ab", "from_bus": "a", "to_bus": "b",
                        "kind": "tie", "impedance": {"r": 1.0, "x": 1.0}}]
    doc["loads"] = [{"id": "ld", "bus": "b",
                     "impedance": {"r": 100.0, "x": 10.0}}]
    relay = {"branch": "ab", "pickup_a": 100.0, "tds": 1.0,
             "curve": "iec_standard_inverse"}
    doc["relays"] = [dict(relay, id="r1"), dict(relay, id="r2")]
    doc["pairs"] = [{"main": "r1", "backup": "r2", "fault_bus": "b"}]
    doc["ufcl"] = {"tie_branch": "ab", "sizing_fault_bus": "a"}
    return doc


@pytest.mark.parametrize("path, record", [
    (("branches", 0, "to_bus"), "ab"),
    (("sources", 0, "bus"), "g"),
    (("loads", 0, "bus"), "ld"),
    (("relays", 0, "branch"), "r1"),
    (("pairs", 0, "backup"), "r1/"),
    (("pairs", 0, "fault_bus"), "r1/r2"),
    (("ufcl", "tie_branch"), "ufcl"),
    (("ufcl", "sizing_fault_bus"), "ufcl"),
], ids=["branch_end", "source_bus", "load_bus", "relay_branch", "pair_relay",
        "pair_fault_bus", "ufcl_tie", "ufcl_sizing_bus"])
def test_dangling_bus_reference_is_named(path, record):
    doc = _referring_doc()
    assert validate(load_network(json.dumps(doc))) == []
    *parents, name = path
    target = doc
    for key in parents:
        target = target[key]
    target[name] = "gone9"
    with pytest.raises(NetworkFormatError,
                       match=f"{re.escape(record)}.*'gone9'"):
        load_network(json.dumps(doc))


def test_validate_lists_every_dangling_reference():
    from protcoord.netmodel import CoordinationPair, RelaySpec
    from protcoord.relaycurve import CurveConstants

    net = Network(
        buses=(Bus("a", 20000.0),),
        branches=(Branch("ab", "a", "b9", "tie", 1 + 1j),),
        sources=(Source("g", "s9", "infinite_grid", 1 + 4j),),
        loads=(ShuntLoad("ld", "l9", 100 + 10j),),
        relays=(RelaySpec("r", "br9", 1.0, 1.0,
                          CurveConstants(1.0, 0.0, 1.0)),),
        pairs=(CoordinationPair("r", "rel9", "p9"),),
        ufcl=UfclSpec("tie9", sizing_fault_bus="z9"))
    dangling = [v.message for v in validate(net)
                if v.rule == "referential integrity"]
    assert dangling == [
        "unknown bus 'b9'", "unknown bus 's9'", "unknown bus 'l9'",
        "unknown branch 'br9'", "unknown relay 'rel9'", "unknown bus 'p9'",
        "unknown branch 'tie9'", "unknown bus 'z9'"]


def test_curve_forms():
    doc = json.loads(MINIMAL)
    doc["branches"] = [{"id": "b", "from_bus": "a", "to_bus": "a2",
                        "impedance": {"r": 1.0, "x": 1.0}}]
    doc["buses"].append({"id": "a2", "nominal_voltage": 20000.0})
    relay = {"id": "r", "branch": "b", "pickup_a": 100.0, "tds": 1.0}
    doc["relays"] = [dict(relay, curve="iec_very_inverse")]
    net = load_network(json.dumps(doc))
    assert net.relays[0].curve.a == 13.5

    doc["relays"] = [dict(relay, curve={"a": 1.0, "b": 0.0, "c": 1.0})]
    assert load_network(json.dumps(doc)).relays[0].curve.c == 1.0

    doc["relays"] = [dict(relay, curve="custom")]
    with pytest.raises(NetworkFormatError, match="custom"):
        load_network(json.dumps(doc))

    doc["relays"] = [dict(relay, curve={"a": 1.0, "b": 0.0})]
    with pytest.raises(NetworkFormatError, match="'c'"):
        load_network(json.dumps(doc))

    doc["relays"] = [dict(relay, curve=5)]
    with pytest.raises(NetworkFormatError, match=r"relays\[0\]: curve must "
                       r"be a family name or an a/b/c object"):
        load_network(json.dumps(doc))


def test_unknown_kinds_rejected():
    doc = json.loads(MINIMAL)
    doc["sources"][0]["kind"] = "wind_farm"
    with pytest.raises(NetworkFormatError, match="wind_farm"):
        load_network(json.dumps(doc))


# --- validate -------------------------------------------------------------


def grid_net(**overrides):
    base = dict(
        buses=(Bus("a", 20000.0), Bus("b", 20000.0)),
        branches=(Branch("ab", "a", "b", "line", 1 + 1j),),
        sources=(Source("g", "a", "infinite_grid", 1 + 4j),),
    )
    base.update(overrides)
    return Network(**base)


def rules(net):
    return {v.rule for v in validate(net)}


def test_validate_rule_strings():
    from protcoord.netmodel import CoordinationPair, RelaySpec
    from protcoord.relaycurve import CurveConstants

    bad_relay = RelaySpec("r", "ab", 0.0, 1.0,
                          CurveConstants(1.0, 0.0, 1.0))
    assert "pickup_a > 0" in rules(grid_net(relays=(bad_relay,)))

    assert "emf_pu in (0.8, 1.2]" in rules(grid_net(
        sources=(Source("g", "a", "infinite_grid", 1 + 4j, emf_pu=1.5),)))

    assert "|impedance| > 0" in rules(grid_net(
        branches=(Branch("ab", "a", "b", "line", 0j),)))

    assert "from_bus != to_bus" in rules(grid_net(
        branches=(Branch("aa", "a", "a", "line", 1j),
                  Branch("ab", "a", "b", "line", 1j))))

    assert "infinite_grid present" in rules(grid_net(
        sources=(Source("d", "a", "sync_dg", 1 + 4j),)))

    assert "graph connected" in rules(grid_net(
        buses=(Bus("a", 20000.0), Bus("b", 20000.0), Bus("isl", 20000.0))))

    assert "ids unique" in rules(grid_net(
        buses=(Bus("a", 20000.0), Bus("a", 20000.0), Bus("b", 20000.0))))

    assert "referential integrity" in rules(grid_net(
        loads=(ShuntLoad("l", "zz", 100 + 10j),)))

    assert "referential integrity" in rules(grid_net(
        ufcl=UfclSpec("ab", sizing_fault_bus="zz")))

    assert "s_base_va > 0" in rules(grid_net(s_base_va=0.0))

    assert "r_normal >= 0" in rules(grid_net(
        ufcl=UfclSpec("ab", r_normal=-2.0)))

    assert "nominal_voltage > 0" in rules(grid_net(
        buses=(Bus("a", 20000.0), Bus("b", 0.0))))

    assert "|internal_impedance| > 0" in rules(grid_net(
        sources=(Source("g", "a", "infinite_grid", 0j),)))

    assert "Re(impedance) >= 0" in rules(grid_net(
        loads=(ShuntLoad("l", "b", -100 + 10j),)))
    assert "Re(impedance) >= 0" in rules(grid_net(
        loads=(ShuntLoad("l", "b", -0.5 + 10j),)))

    assert "tds > 0" in rules(grid_net(relays=(
        RelaySpec("r", "ab", 1.0, 0.0, CurveConstants(1.0, 0.0, 1.0)),)))

    assert "a > 0" in rules(grid_net(relays=(
        RelaySpec("r", "ab", 1.0, 1.0, CurveConstants(0.0, 0.0, 1.0)),)))

    assert "c > 0" in rules(grid_net(relays=(
        RelaySpec("r", "ab", 1.0, 1.0, CurveConstants(1.0, 0.0, 0.0)),)))

    assert "b >= 0" in rules(grid_net(relays=(
        RelaySpec("r", "ab", 1.0, 1.0, CurveConstants(1.0, -1.0, 1.0)),)))

    assert "main != backup" in rules(grid_net(
        relays=(bad_relay,), pairs=(CoordinationPair("r", "r", "b"),)))

    assert "sizing_fault_bus on the grid side" in rules(grid_net(
        ufcl=UfclSpec("ab", sizing_fault_bus="b")))

    assert "sizing_reference_a > 0" in rules(grid_net(
        ufcl=UfclSpec("ab", sizing_fault_bus="a", sizing_reference_a=-5.0)))

    assert "sizing_reference_a needs sizing_fault_bus" in rules(grid_net(
        ufcl=UfclSpec("ab", sizing_reference_a=900.0)))

    assert "tie splits the network in two" in rules(grid_net(
        branches=(Branch("ab", "a", "b", "tie", 1 + 1j),
                  Branch("par", "a", "b", "line", 2 + 2j)),
        ufcl=UfclSpec("ab")))

    assert "|z_pu| >= 1e-6" in rules(grid_net(
        branches=(Branch("ab", "a", "b", "line", 1e-5 + 1e-5j),)))

    assert "per-unit bases" in rules(grid_net(
        buses=(Bus("a", 20000.0), Bus("b", 400.0))))


def test_validate_is_pure(bundled_net):
    assert validate(bundled_net) == validate(bundled_net)


# --- per-unit ---------------------------------------------------------------


def test_per_unit_hand_example():
    # 9.4+j3.48 ohm at 20 kV, 10 MVA: Zbase = 40 ohm
    net = grid_net(branches=(Branch("ab", "a", "b", "line", 9.4 + 3.48j),))
    pu = to_per_unit(net)
    assert pu.branch_z_pu["ab"] == pytest.approx(0.235 + 0.087j, rel=1e-15)
    assert pu.z_base["a"] == pytest.approx(40.0)
    assert pu.i_base["a"] == pytest.approx(10e6 / (math.sqrt(3.0) * 20e3))


def test_transformer_referred_side():
    buses = (Bus("hv", 20000.0), Bus("lv", 400.0))
    src = (Source("g", "hv", "infinite_grid", 1 + 4j),)
    z = 0.01 + 0.04j

    t_from = Network(buses=buses, sources=src, branches=(
        Branch("t", "hv", "lv", "transformer", z, referred_side="from"),))
    pu = to_per_unit(t_from)
    assert pu.branch_z_pu["t"] == pytest.approx(z / 40.0)

    t_to = Network(buses=buses, sources=src, branches=(
        Branch("t", "hv", "lv", "transformer", z, referred_side="to"),))
    pu = to_per_unit(t_to)
    assert pu.branch_z_pu["t"] == pytest.approx(z / (400.0 ** 2 / 10e6))


def test_line_across_voltage_zones_rejected():
    net = Network(
        buses=(Bus("hv", 20000.0), Bus("lv", 400.0)),
        branches=(Branch("b", "hv", "lv", "line", 1 + 1j),),
        sources=(Source("g", "hv", "infinite_grid", 1 + 4j),))
    with pytest.raises(ValueError, match="inconsistent voltage zones"):
        to_per_unit(net)


# --- tie partition ----------------------------------------------------------


def test_partition_two_bus_trivial():
    # the grid side is found from the grid source, whichever end it is
    for ends in ("ab", "ba"):
        net = grid_net(branches=(Branch("tie", *ends, "tie", 1 + 1j),))
        up, down = partition_by_tie(net, "tie")
        assert up == {"a"} and down == {"b"}


def test_partition_bundled(bundled_net):
    up, down = partition_by_tie(bundled_net, bundled_net.ufcl.tie_branch)
    assert up == {"bus1", "bus2", "bus3", "bus4"}
    assert down == {"bus5", "bus6", "dgbus"}
    dg_buses = {s.bus for s in bundled_net.sources
                if s.kind != "infinite_grid"}
    assert dg_buses <= down


@pytest.mark.parametrize("kinds, message", [
    (("infinite_grid", "infinite_grid"), "both sides"),
    (("sync_dg", "induction_dg"), "no infinite_grid source"),
], ids=["grid_both_sides", "no_grid"])
def test_partition_needs_the_grid_on_one_side(kinds, message):
    net = grid_net(
        branches=(Branch("tie", "a", "b", "tie", 1 + 1j),),
        sources=tuple(Source(f"s{k}", bus, kind, 1 + 4j)
                      for k, (bus, kind) in enumerate(zip("ab", kinds))))
    with pytest.raises(ValueError, match=message):
        partition_by_tie(net, "tie")


def test_partition_unknown_tie(bundled_net):
    with pytest.raises(ValueError, match="unknown tie"):
        partition_by_tie(bundled_net, "nope")


def test_partition_isolated_bus_rejected():
    net = grid_net(
        buses=(Bus("a", 20000.0), Bus("b", 20000.0), Bus("isl", 20000.0)),
        branches=(Branch("tie", "a", "b", "tie", 1 + 1j),))
    with pytest.raises(ValueError, match="more than two components"):
        partition_by_tie(net, "tie")


def test_partition_meshed_tie_rejected():
    net = grid_net(branches=(
        Branch("tie", "a", "b", "tie", 1 + 1j),
        Branch("par", "a", "b", "line", 2 + 2j)))
    with pytest.raises(ValueError, match="does not disconnect"):
        partition_by_tie(net, "tie")


@given(seed=st.integers(0, 10_000))
def test_partition_is_two_partition_on_trees(seed):
    net = random_radial_net(seed)
    # every edge of a tree disconnects it
    tie = net.branches[seed % len(net.branches)].id
    up, down = partition_by_tie(net, tie)
    assert up | down == set(net.bus_ids())
    assert not up & down
    assert "n0" in up  # grid side
