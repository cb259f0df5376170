import numpy as np
import pytest
from click.testing import CliRunner

from protcoord import ufcl
from protcoord.faultcalc import build_ybus, solve_fault
from protcoord.netmodel import to_per_unit
from protcoord.studio import SCENARIOS, build_scenario_net, cli, run_scenario
from protcoord.ufcl import SizingError, downstream_buses, size_ufcl

DOUBLING = [0.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0]


def search_path(monkeypatch):
    """Record the limiter ohms of every fault solution sizing asks for."""
    path = []

    def spy(net, fault, ufcl_state_ohm=0.0):
        path.append(ufcl_state_ohm)
        return solve_fault(net, fault, ufcl_state_ohm=ufcl_state_ohm)
    monkeypatch.setattr(ufcl, "solve_fault", spy)
    return path


def test_classify_bundled_sides(bundled_net):
    assert downstream_buses(bundled_net, bundled_net.ufcl) == {
        "bus5", "bus6", "dgbus"}


@pytest.mark.parametrize("sid", ["s2_dg1_ufcl", "s4_dg1_dg2_ufcl",
                                 "s6_induction_dg1_ufcl"])
def test_sizing_on_bundled_scenarios(bundled_net, expected, sid):
    snet = build_scenario_net(bundled_net, SCENARIOS[sid])
    want = expected["sizing"][sid]
    got = size_ufcl(snet, "bus3", want["target_a"])
    assert got.r_star == want["r_star"]  # exact: frozen search path
    assert got.iterations == want["evaluations"]
    assert got.achieved_current_a == pytest.approx(want["achieved_a"],
                                                   rel=1e-9)
    assert got.target_current_a == want["target_a"]


@pytest.mark.parametrize("sid", ["s2_dg1_ufcl", "s4_dg1_dg2_ufcl",
                                 "s6_induction_dg1_ufcl"])
def test_sizing_search_path_on_bundled_scenarios(bundled_net, monkeypatch,
                                                 sid):
    # doubling to 320 ohm, then bisection from [0, 320]: 160 ohm twice
    path = search_path(monkeypatch)
    run_scenario(bundled_net, SCENARIOS[sid])
    assert path == DOUBLING + [160.0, 240.0, 200.0]


@pytest.mark.parametrize("bus, tail", [("bus1", [640.0]),
                                       ("bus2", [640.0, 1280.0])])
def test_cli_size_ufcl_search_path(monkeypatch, bus, tail):
    # the doubling lands inside the tolerance: no bisection
    path = search_path(monkeypatch)
    result = CliRunner().invoke(cli, ["size-ufcl", "--fault-bus", bus])
    assert result.exit_code == 0, result.output
    assert path == DOUBLING + tail


def test_sizing_trivial_when_already_at_target(bundled_net):
    # no DG in service: fault level equals the target, zero resistance needed
    from protcoord.faultcalc import FaultSpec
    snet = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
    base = abs(solve_fault(snet, FaultSpec(bus="bus3")).fault_current_a)
    got = size_ufcl(snet, "bus3", base)
    assert got.r_star == 0.0
    assert got.iterations == 1


def test_sizing_target_above_reach(bundled_net):
    # more current than the unlimited network delivers: resistance only
    # ever lowers it, so this fails before any search starts
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    with pytest.raises(SizingError, match="below the target"):
        size_ufcl(snet, "bus3", 2200.0)


def test_sizing_hits_evaluation_cap_when_target_below_asymptote(bundled_net):
    # the limiter only removes the tie contribution; 500 A is under what
    # the grid alone delivers, so doubling runs until the budget is gone
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    with pytest.raises(SizingError, match="200 fault solutions"):
        size_ufcl(snet, "bus3", 500.0)


def test_sizing_rejects_downstream_bus(bundled_net):
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    with pytest.raises(ValueError, match="upstream"):
        size_ufcl(snet, "bus6", 900.0)


def test_sizing_rejects_bad_target(bundled_net):
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    with pytest.raises(ValueError):
        size_ufcl(snet, "bus3", 0.0)


def test_zero_state_matrix_identical(bundled_net):
    pu = to_per_unit(bundled_net)
    y0, idx0 = build_ybus(pu)
    y1, idx1 = build_ybus(pu, ufcl_state_ohm=0.0)
    assert idx0 == idx1
    assert np.array_equal(y0, y1)


def test_more_resistance_means_less_upstream_current(bundled_net):
    from protcoord.faultcalc import FaultSpec
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    levels = [abs(solve_fault(snet, FaultSpec(bus="bus3"),
                              ufcl_state_ohm=r).fault_current_a)
              for r in (0.0, 50.0, 100.0, 200.0, 400.0)]
    assert all(a > b for a, b in zip(levels, levels[1:]))


def test_sizing_restores_target_on_random_networks():
    from conftest import random_tie_net

    from protcoord.faultcalc import FaultSpec
    for seed in range(10):
        net, sizing_bus = random_tie_net(seed)
        no_dg = net
        # target: same net with the DG removed entirely
        from dataclasses import replace
        bare = replace(net, sources=tuple(s for s in net.sources
                                          if s.kind == "infinite_grid"))
        target = abs(solve_fault(bare, FaultSpec(bus=sizing_bus))
                     .fault_current_a)
        try:
            got = size_ufcl(net, sizing_bus, target)
        except SizingError:
            continue  # DG too strong for the cap on this draw
        check = abs(solve_fault(net, FaultSpec(bus=sizing_bus),
                                ufcl_state_ohm=got.r_star).fault_current_a)
        assert abs(check - target) / target <= 0.005
