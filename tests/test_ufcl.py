from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from protcoord import ufcl
from protcoord.faultcalc import (FaultSpec, LevelMap, LimiterStates,
                                 solve_fault)
from protcoord.netmodel import partition_by_tie, validate
from protcoord.studio import SCENARIOS, build_scenario_net, cli, run_scenario
from protcoord.ufcl import SizingError, downstream_buses, size_ufcl

DOUBLING = [0.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
# every R a pinned search path visits, and one far beyond
CHECK_OHMS = DOUBLING + [240.0, 200.0, 640.0, 1280.0, 1e4]


def search_path(monkeypatch):
    """Record the limiter ohms of every evaluation sizing makes."""
    path = []
    read = LevelMap.amps

    def spy(level, r_ohm):
        path.append(r_ohm)
        return read(level, r_ohm)
    monkeypatch.setattr(LevelMap, "amps", spy)
    return path


def solve_path(monkeypatch):
    """Record the limiter ohms of every fault solution sizing asks for."""
    path = []

    def spy(net, fault, ufcl_state_ohm=0.0):
        path.append(ufcl_state_ohm)
        return solve_fault(net, fault, ufcl_state_ohm=ufcl_state_ohm)
    monkeypatch.setattr(ufcl, "solve_fault", spy)
    return path


def at_target(net, target_a):
    """net with target_a recorded as the pre-DG level at its designated
    sizing bus, the target size_ufcl then sizes to there."""
    return net._replace(ufcl=net.ufcl._replace(sizing_reference_a=target_a))


def test_classify_bundled_sides(bundled_net):
    assert downstream_buses(bundled_net) == {
        "bus5", "bus6", "dgbus"}


@pytest.mark.parametrize("sid", ["s2_dg1_ufcl", "s4_dg1_dg2_ufcl",
                                 "s6_induction_dg1_ufcl"])
def test_sizing_on_bundled_scenarios(bundled_net, expected, sid):
    snet = build_scenario_net(bundled_net, SCENARIOS[sid])
    want = expected["sizing"][sid]
    got = size_ufcl(at_target(snet, want["target_a"]), "bus3")
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
    snet = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
    base = abs(solve_fault(snet, FaultSpec(bus="bus3")).fault_current_a)
    got = size_ufcl(at_target(snet, base), "bus3")
    assert got.r_star == 0.0
    assert got.iterations == 1


def test_sizing_target_above_reach(bundled_net):
    # more current than the unlimited network delivers: resistance only
    # ever lowers it, so this fails before any search starts
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    with pytest.raises(SizingError, match="below the target"):
        size_ufcl(at_target(snet, 2200.0), "bus3")


def test_sizing_rejects_target_below_asymptote(bundled_net, monkeypatch):
    # the limiter only removes the tie contribution; 500 A is under what
    # the grid alone delivers, so sizing stops after the R=0 evaluation
    # instead of doubling until the budget is gone
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    path = search_path(monkeypatch)
    with pytest.raises(SizingError, match=r"tie open \(955\.5\d* A\) is "
                                          r"above the target \(500 A\)"):
        size_ufcl(at_target(snet, 500.0), "bus3")
    assert path == [0.0]


def test_sizing_evaluation_cap_still_guards(bundled_net, monkeypatch):
    # a level that never settles within the tolerance: every read sits
    # 1 % above the target, and the map claims the tie-open level is 0
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    monkeypatch.setattr(LevelMap, "amps", lambda level, r_ohm: 1010.0)
    monkeypatch.setattr(LevelMap, "tie_open_a", lambda level: 0.0)
    with pytest.raises(SizingError, match="within 200 evaluations"):
        size_ufcl(at_target(snet, 1000.0), "bus3")


@pytest.mark.parametrize("sid", ["s2_dg1_ufcl", "s4_dg1_dg2_ufcl",
                                 "s6_induction_dg1_ufcl"])
def test_sizing_solves_only_the_answer(bundled_net, monkeypatch, sid):
    # the map comes from the study's own factorisation; one solution,
    # read at R* from a factorisation at R = 0, confirms it
    path = solve_path(monkeypatch)
    run_scenario(bundled_net, SCENARIOS[sid])
    assert path == [200.0]


def test_sizing_confirms_the_read_with_a_solution(bundled_net, monkeypatch):
    # a read that lies about R=10 ohm is caught by the solution there
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    read = LevelMap.amps
    monkeypatch.setattr(LevelMap, "amps", lambda level, r_ohm: (
        981.81 if r_ohm == 10.0 else read(level, r_ohm)))
    with pytest.raises(SizingError, match=r"R=10 ohm \(1[0-9.]+ A\) misses "
                                          r"the target \(981\.81 A\)"):
        size_ufcl(snet, "bus3")


def test_sizing_when_the_level_does_not_depend_on_r(bundled_net):
    # no source and no load behind the tie: it carries no current, so the
    # level does not depend on R and the map is flat
    snet = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
    down = downstream_buses(snet)
    snet = snet._replace(loads=tuple(ld for ld in snet.loads
                                     if ld.bus not in down))
    assert validate(snet) == []
    base = solve_fault(snet, FaultSpec("bus3")).fault_current_a
    far = solve_fault(snet, FaultSpec("bus3"), ufcl_state_ohm=1e6)
    assert far.fault_current_a == pytest.approx(base, rel=1e-12)
    for k in (1.0, 0.999):
        got = size_ufcl(at_target(snet, k * base), "bus3")
        assert (got.r_star, got.iterations) == (0.0, 1)
        assert got.achieved_current_a == base
    for k in (0.99, 0.9, 0.5):
        with pytest.raises(SizingError, match="tie open"):
            size_ufcl(at_target(snet, k * base), "bus3")


def read_only(level):
    """Limiter states whose every bus reads the one LevelMap given."""
    return SimpleNamespace(level=lambda bus: level)


def test_sizing_stops_at_exactly_the_tolerance(bundled_net):
    # the map's R=0 current is exactly SIZING_TOL above the target, in
    # floating point too: 201 m against 200 m for a dyadic m near the
    # solved current. The band is closed, so the search stops at R=0,
    # where the solution agrees with the target
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    base = solve_fault(snet, FaultSpec("bus3")).fault_current_a
    m = round(base / 200.0 * 1024) / 1024
    level = LevelMap(complex(201.0 * m), 0j, 1.0 + 0j)
    assert (level.amps(0.0) - 200.0 * m) / (200.0 * m) == ufcl.SIZING_TOL
    got = size_ufcl(at_target(snet, 200.0 * m), "bus3",
                    states=read_only(level))
    assert (got.r_star, got.iterations) == (0.0, 1)
    assert got.achieved_current_a == base


def test_sizing_rejects_a_tie_open_level_at_exactly_the_tolerance(
        bundled_net):
    # the current falls toward a tie-open level exactly SIZING_TOL above
    # the target and never reaches the band: no finite R is enough
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    tie_open = 1000.0 * (1.0 + ufcl.SIZING_TOL)
    level = LevelMap(complex(2.0 * tie_open), complex(tie_open), 1.0 + 0j)
    assert level.tie_open_a() == tie_open
    with pytest.raises(SizingError, match="tie open"):
        size_ufcl(at_target(snet, 1000.0), "bus3", states=read_only(level))


def test_level_map_is_flat_where_the_tie_is_idle():
    # with the DG and the downstream loads removed, the tie's far side
    # reaches ground only through the tie, so the tie carries no current
    # and the level at an upstream bus does not depend on R; the closed
    # form's R terms are then round-off, and a ratio of them is no level
    from conftest import random_tie_net
    for seed in range(100):
        net, _ = random_tie_net(seed)
        up, down = partition_by_tie(net, "tie")
        net = net._replace(loads=tuple(ld for ld in net.loads
                                       if ld.bus not in down),
                           sources=tuple(s for s in net.sources
                                         if s.kind == "infinite_grid"))
        buses = [b for b in net.bus_ids() if b in up]
        states = LimiterStates(net)
        for bus in buses:
            level = states.level(bus)
            base = level.amps(0.0)
            assert base == pytest.approx(
                solve_fault(net, FaultSpec(bus)).fault_current_a, rel=1e-9)
            for got in (level.amps(1e9), level.tie_open_a()):
                assert got == pytest.approx(base, rel=1e-9), (seed, bus)


def _assert_map_matches_solutions(net, bus):
    # the closed form against the update's read at each R, both from the
    # one factorisation at R = 0
    level = LimiterStates(net).level(bus)
    for r in CHECK_OHMS:
        want = solve_fault(net, FaultSpec(bus), ufcl_state_ohm=r)
        assert level.amps(r) == pytest.approx(want.fault_current_a,
                                              rel=1e-9), (bus, r)


@pytest.mark.parametrize("sid", ["s2_dg1_ufcl", "s4_dg1_dg2_ufcl",
                                 "s6_induction_dg1_ufcl"])
def test_level_map_matches_solutions_on_bundled(bundled_net, sid):
    snet = build_scenario_net(bundled_net, SCENARIOS[sid])
    for bus in ("bus1", "bus2", "bus3", "bus4"):
        _assert_map_matches_solutions(snet, bus)


def test_level_map_matches_solutions_on_random_networks():
    from conftest import random_tie_net
    for seed in range(100):
        net, sizing_bus = random_tie_net(seed)
        _assert_map_matches_solutions(net, sizing_bus)


def test_level_map_tie_open_level(bundled_net):
    # the R -> infinity limit is the level with the tie branch removed
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    far = solve_fault(snet, FaultSpec("bus3"), ufcl_state_ohm=1e9)
    level = LimiterStates(snet).level("bus3")
    assert level.tie_open_a() == pytest.approx(far.fault_current_a,
                                               rel=1e-6)


def test_sizing_rejects_downstream_bus(bundled_net):
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    with pytest.raises(ValueError) as err:
        size_ufcl(snet, "bus6")
    assert str(err.value) == ("fault bus 'bus6' is downstream of the "
                              "limiter; sizing needs an upstream bus")


def test_sizing_rejects_bad_target(bundled_net):
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    with pytest.raises(ValueError):
        size_ufcl(at_target(snet, 0.0), "bus3")


def test_more_resistance_means_less_upstream_current(bundled_net):
    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    levels = [abs(solve_fault(snet, FaultSpec(bus="bus3"),
                              ufcl_state_ohm=r).fault_current_a)
              for r in (0.0, 50.0, 100.0, 200.0, 400.0)]
    assert all(a > b for a, b in zip(levels, levels[1:]))


def test_sizing_restores_target_on_random_networks():
    from conftest import random_tie_net

    for seed in range(10):
        net, sizing_bus = random_tie_net(seed)
        # target: same net with the DG removed entirely
        bare = net._replace(sources=tuple(s for s in net.sources
                                          if s.kind == "infinite_grid"))
        target = abs(solve_fault(bare, FaultSpec(bus=sizing_bus))
                     .fault_current_a)
        try:
            got = size_ufcl(net, sizing_bus)
        except SizingError:
            continue  # DG too strong: target below the tie-open level
        assert got.target_current_a == pytest.approx(target, rel=1e-9)
        check = abs(solve_fault(net, FaultSpec(bus=sizing_bus),
                                ufcl_state_ohm=got.r_star).fault_current_a)
        assert abs(check - target) / target <= 0.005
