import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_net, random_radial_net, random_tie_net
from protcoord import faultcalc
from protcoord.faultcalc import (FaultSpec, build_ybus, oracle_solve,
                                 solve_fault, solve_faults, steady_state,
                                 thevenin_at)
from protcoord.netmodel import (Branch, Bus, Network, ShuntLoad, Source,
                                to_per_unit, validate)
from protcoord.studio import SCENARIOS, build_scenario_net
from protcoord.ufcl import size_ufcl


def close(a, b, rel=1e-9, floor=1.0):
    return abs(a - b) <= rel * max(floor, abs(b))


# --- ybus stamping ----------------------------------------------------------


def two_bus(z_ohm, with_source=False):
    sources = (Source("g", "a", "infinite_grid", 4j),) if with_source else ()
    return Network(buses=(Bus("a", 20000.0), Bus("b", 20000.0)),
                   branches=(Branch("ab", "a", "b", "line", z_ohm),),
                   sources=sources)


def test_ybus_hand_stamp_single_branch():
    # z = j20 ohm on a 40 ohm base: j0.5 pu, y = -2j
    ybus, ix = build_ybus(to_per_unit(two_bus(20j)))
    want = np.array([[-2j, 2j], [2j, -2j]])
    assert np.allclose(ybus, want, atol=1e-15)
    assert ix == {"a": 0, "b": 1}


def test_ybus_hand_stamp_with_source():
    # grid z = j4 ohm: j0.1 pu, adds 1/(j0.1) = -10j on its diagonal
    ybus, _ = build_ybus(to_per_unit(two_bus(20j, with_source=True)))
    assert ybus[0, 0] == pytest.approx(-12j, abs=1e-12)
    assert ybus[1, 1] == pytest.approx(-2j, abs=1e-12)


def test_ybus_ufcl_state_touches_only_tie_entries(bundled_net):
    pu = to_per_unit(bundled_net)
    y0, ix = build_ybus(pu, ufcl_state_ohm=0.0)
    y1, _ = build_ybus(pu, ufcl_state_ohm=184.0)
    tie = bundled_net.branch_by_id(bundled_net.ufcl.tie_branch)
    touched = {(ix[tie.from_bus], ix[tie.from_bus]),
               (ix[tie.from_bus], ix[tie.to_bus]),
               (ix[tie.to_bus], ix[tie.from_bus]),
               (ix[tie.to_bus], ix[tie.to_bus])}
    diff = {(i, j) for i in range(len(ix)) for j in range(len(ix))
            if y0[i, j] != y1[i, j]}
    assert diff == touched


def test_ufcl_state_without_tie_rejected():
    net = two_bus(20j, with_source=True)
    with pytest.raises(ValueError, match="tie"):
        solve_fault(net, FaultSpec("b"), ufcl_state_ohm=10.0)


def test_two_tie_branches_without_ufcl_solve_at_zero_limiter():
    # the limiter sits on the ufcl block's tie only, so a network with
    # several tie-kind branches and no ufcl block is an ordinary network
    net = Network(
        buses=tuple(Bus(b, 20000.0) for b in ("g", "a", "b", "c")),
        branches=(Branch("ga", "g", "a", "line", 1 + 2j),
                  Branch("t1", "a", "b", "tie", 0.5 + 1j),
                  Branch("t2", "b", "c", "tie", 0.7 + 1.5j)),
        sources=(Source("grid", "g", "infinite_grid", 1 + 4j),
                 Source("dg", "c", "sync_dg", 3 + 20j)),
        loads=(ShuntLoad("lb", "b", 300 + 40j),))
    assert validate(net) == []
    for bus in net.bus_ids():
        got = solve_fault(net, FaultSpec(bus))
        ref = oracle_solve(net, FaultSpec(bus))
        assert close(got.fault_current_a, ref.fault_current_a), bus
        for br in net.branches:
            assert close(got.branch_currents[br.id],
                         ref.branch_currents[br.id]), (bus, br.id)


# --- steady state -----------------------------------------------------------


def test_steady_state_voltage_divider():
    # load z equal to source internal z and a negligible branch between:
    # load current is half the base current
    net = Network(
        buses=(Bus("a", 20000.0), Bus("b", 20000.0)),
        branches=(Branch("ab", "a", "b", "line", 0.0004j),),
        sources=(Source("g", "a", "infinite_grid", 40j),),
        loads=(ShuntLoad("l", "b", 40j),))
    amps = steady_state(net)["ab"]
    i_base = 10e6 / (math.sqrt(3.0) * 20e3)
    assert abs(amps) == pytest.approx(0.5 * i_base, rel=1e-4)


def test_steady_state_bundled_matches_frozen(bundled_net, expected):
    snet = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
    currents = steady_state(snet)
    for r in snet.relays:
        assert close(abs(currents[r.branch]), expected["steady_no_dg"][r.id])


def test_steady_state_bundled_near_table_load_flow(bundled_net):
    # relay-1 feeder loading lands near the published 558 A
    snet = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
    amps = abs(steady_state(snet)[bundled_net.relay_by_id("relay1").branch])
    assert amps == pytest.approx(558.0, rel=0.05)


# --- solve_fault ------------------------------------------------------------


def test_single_bus_bolted_fault_is_ten_pu():
    net = Network(buses=(Bus("a", 20000.0),), branches=(),
                  sources=(Source("g", "a", "infinite_grid", 4j),))
    res = solve_fault(net, FaultSpec("a"))
    i_base = 10e6 / (math.sqrt(3.0) * 20e3)
    assert res.fault_current_a == pytest.approx(10.0 * i_base, rel=1e-12)
    # angle -90 deg: purely negative-imaginary phasor
    assert res.fault_current_c.real == pytest.approx(0.0, abs=1e-9)
    assert res.fault_current_c.imag == pytest.approx(-10.0 * i_base,
                                                     rel=1e-12)
    orc = oracle_solve(net, FaultSpec("a"))
    assert orc.fault_current_a == pytest.approx(10.0 * i_base, rel=1e-12)


def test_bundled_fault_levels_near_published(bundled_net):
    s0 = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
    assert solve_fault(s0, FaultSpec("bus3")).relay_currents["relay2"] \
        == pytest.approx(981.81, rel=0.05)
    s1 = build_scenario_net(bundled_net, SCENARIOS["s1_dg1"])
    assert solve_fault(s1, FaultSpec("bus3")).relay_currents["relay2"] \
        == pytest.approx(1066.52, rel=0.05)


def test_unknown_fault_bus(bundled_net):
    with pytest.raises(ValueError, match="bus99"):
        solve_fault(bundled_net, FaultSpec("bus99"))


def test_fault_result_covers_all_relays(bundled_net):
    res = solve_fault(bundled_net, FaultSpec("bus4"))
    assert set(res.relay_currents) == {r.id for r in bundled_net.relays}
    assert set(res.branch_currents) == {b.id for b in bundled_net.branches}


@settings(deadline=None)
@given(seed=st.integers(0, 5000))
def test_dg_never_decreases_fault_current(seed):
    net = random_radial_net(seed, with_dg=False)
    dg = Source("dg", net.buses[-1].id, "sync_dg", 2 + 15j)
    with_dg = replace(net, sources=net.sources + (dg,))
    for b in net.buses:
        base = solve_fault(net, FaultSpec(b.id)).fault_current_a
        boosted = solve_fault(with_dg, FaultSpec(b.id)).fault_current_a
        assert boosted >= base * (1 - 1e-12)


def test_induction_multiplier_one_equals_sync(bundled_net, monkeypatch):
    s5 = build_scenario_net(bundled_net, SCENARIOS["s5_induction_dg1"])
    s1 = build_scenario_net(bundled_net, SCENARIOS["s1_dg1"])
    with monkeypatch.context() as m:
        m.setattr(faultcalc, "INDUCTION_Z_MULT", 1.0)
        at_unity = solve_fault(s5, FaultSpec("bus3"))
    sync = solve_fault(s1, FaultSpec("bus3"))
    assert close(at_unity.fault_current_a, sync.fault_current_a, rel=1e-12)
    default = solve_fault(s5, FaultSpec("bus3"))
    assert default.fault_current_a < sync.fault_current_a


# --- batches of faults -----------------------------------------------------


def assert_batch_matches(net, r_ohm):
    faults = [FaultSpec(b.id) for b in net.buses]
    batch = solve_faults(net, faults, ufcl_state_ohm=r_ohm)
    assert [res.fault_bus for res in batch] == [f.bus for f in faults]
    for fault, res in zip(faults, batch):
        one = solve_fault(net, fault, ufcl_state_ohm=r_ohm)
        ref = oracle_solve(net, fault, ufcl_state_ohm=r_ohm)
        for other in (one, ref):
            assert close(res.fault_current_c, other.fault_current_c), fault
            for br in net.branches:
                assert close(res.branch_currents[br.id],
                             other.branch_currents[br.id]), (fault, br.id)
        assert res.relay_currents == one.relay_currents


def tie_states():
    """Each random_tie_net seed at R = 0 and at its sized resistance."""
    for seed in range(100):
        net, bus = random_tie_net(seed)
        yield net, 0.0
        bare = replace(net, sources=tuple(
            s for s in net.sources if s.kind == "infinite_grid"))
        sized = size_ufcl(net, bus, solve_fault(bare, FaultSpec(bus))
                          .fault_current_a)
        assert sized.r_star > 0
        yield net, sized.r_star


def test_batch_equals_single_and_oracle_on_tie_networks():
    for net, r_ohm in tie_states():
        assert_batch_matches(net, r_ohm)


def test_batch_equals_single_and_oracle_on_connected_networks():
    for seed in range(100):
        assert_batch_matches(random_connected_net(seed), 0.0)


@functools.cache
def large_nets():
    """Networks of 40-60 buses, past the oracle's limit: radial with and
    without a DG, and meshed; the first seeds that draw 40 buses or more.
    Drawn once per session (about 0.7 s); the networks are frozen."""
    nets = []
    for build in (lambda s: random_radial_net(s, max_buses=60),
                  lambda s: random_radial_net(s, max_buses=60, with_dg=True),
                  lambda s: random_connected_net(s, max_buses=60)):
        drawn = (build(seed) for seed in range(1000))
        nets += [net for net in drawn if len(net.buses) >= 40][:5]
    return tuple(nets)


def test_batch_equals_single_on_large_networks():
    for net in large_nets():
        batch = solve_faults(net, [FaultSpec(b.id) for b in net.buses])
        for res in batch:
            one = solve_fault(net, FaultSpec(res.fault_bus))
            assert close(res.fault_current_c, one.fault_current_c)
            for br in net.branches:
                assert close(res.branch_currents[br.id],
                             one.branch_currents[br.id]), br.id
            for r in net.relays:
                assert close(res.relay_currents[r.id],
                             one.relay_currents[r.id]), r.id


def test_branch_currents_mapping_contract(bundled_net):
    s2 = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    r_star = size_ufcl(s2, s2.ufcl.sizing_fault_bus,
                       s2.ufcl.sizing_reference_a).r_star
    states = [(s2, 0.0), (s2, r_star)] + [(net, 0.0) for net in large_nets()]
    for net, r_ohm in states:
        branch_ids = [br.id for br in net.branches]
        faults = [FaultSpec(b.id) for b in net.buses]
        for res in solve_faults(net, faults, ufcl_state_ohm=r_ohm):
            currents = res.branch_currents
            assert list(currents) == branch_ids
            with pytest.raises(KeyError):
                currents["no-such-branch"]
            with pytest.raises(TypeError):
                currents[branch_ids[0]] = 0j
            plain = replace(res, branch_currents=dict(currents))
            assert res == plain
            assert repr(res) == repr(plain)
            floor = 1e-9 * max(1.0, res.fault_current_a)
            for r in net.relays:
                amps = abs(currents[r.branch])
                assert res.relay_currents[r.id] == \
                    (amps if amps > floor else 0.0), r.id
            before = (dict(currents), dict(res.relay_currents))
            res.bus_voltages_pu[:] = 0.0
            assert (dict(currents), res.relay_currents) == before


def test_batch_edges(bundled_net):
    assert solve_faults(bundled_net, []) == []
    with pytest.raises(ValueError, match="bus99"):
        solve_faults(bundled_net, [FaultSpec("bus3"), FaultSpec("bus99"),
                                   FaultSpec("bus4")])


# --- thevenin ---------------------------------------------------------------


def test_thevenin_single_source_bus():
    net = Network(buses=(Bus("a", 20000.0),), branches=(),
                  sources=(Source("g", "a", "infinite_grid", 4j),))
    zth = thevenin_at(to_per_unit(net), "a")
    assert zth == pytest.approx(0.1j, rel=1e-12)


def test_thevenin_series_chain():
    net = Network(
        buses=(Bus("a", 20000.0), Bus("b", 20000.0), Bus("c", 20000.0)),
        branches=(Branch("ab", "a", "b", "line", 4 + 8j),
                  Branch("bc", "b", "c", "line", 2 + 2j)),
        sources=(Source("g", "a", "infinite_grid", 1 + 4j),))
    zth = thevenin_at(to_per_unit(net), "c")
    assert zth * 40.0 == pytest.approx((1 + 4j) + (4 + 8j) + (2 + 2j),
                                       rel=1e-12)


@settings(deadline=None)
@given(seed=st.integers(0, 5000))
def test_adding_dg_never_raises_thevenin(seed):
    net = random_connected_net(seed)
    dg = Source("extra_dg", net.buses[-1].id, "sync_dg", 3 + 20j)
    with_dg = replace(net, sources=net.sources + (dg,))
    pu0, pu1 = to_per_unit(net), to_per_unit(with_dg)
    for b in net.buses:
        assert abs(thevenin_at(pu1, b.id)) \
            <= abs(thevenin_at(pu0, b.id)) * (1 + 1e-12)


# --- superposition ----------------------------------------------------------


@settings(deadline=None)
@given(seed=st.integers(0, 3000))
def test_per_source_contributions_sum_to_total(seed):
    net = random_connected_net(seed)
    bus = net.buses[seed % len(net.buses)].id
    total = solve_fault(net, FaultSpec(bus)).fault_current_c
    parts = 0j
    for s in net.sources:
        solo = replace(net, sources=tuple(
            src if src.id == s.id else replace(src, emf_pu=0.0)
            for src in net.sources))
        parts += solve_fault(solo, FaultSpec(bus)).fault_current_c
    assert abs(parts - total) <= 1e-9 * max(1.0, abs(total))


def test_fault_current_is_prefault_voltage_over_thevenin(bundled_net):
    pu = to_per_unit(bundled_net)
    for bus in ("bus3", "bus6", "dgbus"):
        v_pre = oracle_solve(bundled_net, None).bus_voltages_pu[
            bundled_net.bus_ids().index(bus)]
        zth = thevenin_at(pu, bus)
        i_pu = v_pre / zth
        got = solve_fault(bundled_net, FaultSpec(bus)).fault_current_a
        assert close(got, abs(i_pu) * pu.i_base[bus])


# --- oracle route -----------------------------------------------------------


def kcl_residuals(net, sol, fault_bus=None, branch_pu=None):
    """Node balance from a solution's voltages and fault current, in pu.

    Each branch's from-to current is branch_pu[id] when given, else the
    voltage across it over its impedance (no limiter resistance).
    """
    pu = to_per_unit(net)
    v = dict(zip(net.bus_ids(), sol.bus_voltages_pu))
    if branch_pu is None:
        branch_pu = {br.id: (v[br.from_bus] - v[br.to_bus])
                     / pu.branch_z_pu[br.id] for br in net.branches}
    res = {}
    for b in net.buses:
        acc = 0j
        for br in net.branches:
            if br.from_bus == b.id:
                acc += branch_pu[br.id]
            elif br.to_bus == b.id:
                acc -= branch_pu[br.id]
        for l in net.loads:
            if l.bus == b.id:
                acc += v[b.id] / pu.load_z_pu[l.id]
        for s in net.sources:
            if s.bus == b.id:
                z = pu.source_z_pu[s.id]
                if s.kind == "induction_dg":
                    z = z * 1.05
                acc -= (s.emf_pu - v[b.id]) / z
        if b.id == fault_bus:
            acc += sol.fault_current_c / pu.i_base[b.id]
        res[b.id] = abs(acc)
    return res


def test_oracle_agrees_on_bundled_everywhere(bundled_net):
    for sid, scen in SCENARIOS.items():
        snet = build_scenario_net(bundled_net, scen)
        for bus in ("bus3", "bus4", "bus6", "dgbus"):
            for state in (0.0, 200.0):
                a = solve_fault(snet, FaultSpec(bus), ufcl_state_ohm=state)
                b = oracle_solve(snet, FaultSpec(bus), ufcl_state_ohm=state)
                assert close(a.fault_current_a, b.fault_current_a), \
                    (sid, bus, state)
                for br in snet.branches:
                    assert close(abs(a.branch_currents[br.id]),
                                 abs(b.branch_currents[br.id])), \
                        (sid, bus, state, br.id)


def test_oracle_kcl_on_random_radial_networks(bundled_net):
    for seed in range(100):
        net = random_radial_net(seed, with_dg=(seed % 2 == 0))
        sol = oracle_solve(net, None)
        assert max(kcl_residuals(net, sol).values()) < 1e-9
        bus = net.buses[seed % len(net.buses)].id
        post = oracle_solve(net, FaultSpec(bus))
        assert max(kcl_residuals(net, post, fault_bus=bus).values()) < 1e-9


def assert_reported_kcl(net, r_ohm=0.0):
    """Every bus of an all-bus solve_faults balances, with the branch
    currents as reported: amps on the from-side base, back to per-unit."""
    pu = to_per_unit(net)
    faults = [FaultSpec(b.id) for b in net.buses]
    for res in solve_faults(net, faults, ufcl_state_ohm=r_ohm):
        branch_pu = {br.id: res.branch_currents[br.id] / pu.i_base[br.from_bus]
                     for br in net.branches}
        residuals = kcl_residuals(net, res, res.fault_bus, branch_pu)
        assert max(residuals.values()) < 1e-9, (res.fault_bus, r_ohm)


def test_production_kcl_on_random_networks():
    for seed in range(100):
        assert_reported_kcl(random_radial_net(seed))
        assert_reported_kcl(random_radial_net(seed, with_dg=True))
        assert_reported_kcl(random_connected_net(seed))
    for net, r_ohm in tie_states():
        assert_reported_kcl(net, r_ohm)
    for net in large_nets():
        assert_reported_kcl(net)


def test_oracle_matches_steady_state_branch_currents(bundled_net):
    currents = steady_state(bundled_net)
    orc = oracle_solve(bundled_net, None)
    for br in bundled_net.branches:
        assert close(abs(currents[br.id]), abs(orc.branch_currents[br.id]),
                     rel=1e-9, floor=1e-3)


def test_oracle_bus_limit():
    buses = tuple(Bus(f"n{i}", 20000.0) for i in range(13))
    branches = tuple(Branch(f"b{i}", f"n{i}", f"n{i + 1}", "line", 1 + 1j)
                     for i in range(12))
    net = Network(buses=buses, branches=branches,
                  sources=(Source("g", "n0", "infinite_grid", 1 + 4j),))
    with pytest.raises(ValueError, match="12"):
        oracle_solve(net, FaultSpec("n5"))
