import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (branch_amps, fault_voltages, feeder_net,
                      random_connected_net, random_radial_net,
                      random_tie_net)
from protcoord import faultcalc
from protcoord.faultcalc import (FaultResult, FaultSpec, LimiterStates,
                                 OracleResult, build_ybus, oracle_solve,
                                 solve_fault)
from protcoord.netmodel import (Branch, Bus, Network, RelaySpec, ShuntLoad,
                                Source, to_per_unit, validate)
from protcoord.relaycurve import curve_family
from protcoord.studio import (SCENARIOS, Scenario, build_scenario_net,
                              run_scenario)
from protcoord.ufcl import size_ufcl


def close(a, b, rel=1e-9, floor=1.0):
    return abs(a - b) <= rel * max(floor, abs(b))


def solve_batch(net, faults, r_ohm=0.0):
    """Every fault of faults at one limiter resistance, from one solve."""
    buses = [f.bus for f in faults]
    return LimiterStates(net).solve(buses, r_ohm)


# --- ybus stamping ----------------------------------------------------------


def two_bus(z_ohm, with_source=False):
    sources = (Source("g", "a", "infinite_grid", 4j),) if with_source else ()
    return Network(buses=(Bus("a", 20000.0), Bus("b", 20000.0)),
                   branches=(Branch("ab", "a", "b", "line", z_ohm),),
                   sources=sources)


def test_ybus_hand_stamp_single_branch():
    # z = j20 ohm on a 40 ohm base: j0.5 pu, y = -2j
    ybus, ix = build_ybus(two_bus(20j))
    want = np.array([[-2j, 2j], [2j, -2j]])
    assert np.allclose(np.array(ybus), want, atol=1e-15)
    assert ix == {"a": 0, "b": 1}


def test_ybus_hand_stamp_with_source():
    # grid z = j4 ohm: j0.1 pu, adds 1/(j0.1) = -10j on its diagonal
    ybus = np.array(build_ybus(two_bus(20j, with_source=True))[0])
    assert ybus[0, 0] == pytest.approx(-12j, abs=1e-12)
    assert ybus[1, 1] == pytest.approx(-2j, abs=1e-12)


def dense(stamps):
    """Y from _nodal's stamps, as a dense matrix."""
    diag, off = stamps
    ybus = np.diag(np.array(diag, dtype=complex))
    for i, row in enumerate(off):
        for j, v in row.items():
            ybus[i, j] = v
    return ybus


def test_ufcl_state_without_tie_rejected(bundled_net):
    # both routes refuse a resistance that no tie can carry, rather than
    # answering at R = 0: no ufcl block, or a tie branch the network lacks
    cases = [(two_bus(20j, with_source=True), "b",
              "no tie branch to carry the limiter resistance"),
             (bundled_net._replace(ufcl=bundled_net.ufcl._replace(
                 tie_branch="nosuch")), "bus3",
              "ufcl: referential integrity (unknown branch 'nosuch')")]
    for net, bus, want in cases:
        for route in (solve_fault, oracle_solve):
            with pytest.raises(ValueError) as err:
                route(net, FaultSpec(bus), ufcl_state_ohm=10.0)
            assert str(err.value) == want, route


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
        currents = branch_amps(net, fault_voltages(net, bus))
        for br in net.branches:
            assert close(currents[br.id], ref.branch_currents[br.id]), (
                bus, br.id)


# --- steady state, from the oracle's unfaulted solution ---------------------


def test_steady_state_voltage_divider():
    # load z equal to source internal z and a negligible branch between:
    # load current is half the base current
    net = Network(
        buses=(Bus("a", 20000.0), Bus("b", 20000.0)),
        branches=(Branch("ab", "a", "b", "line", 0.0004j),),
        sources=(Source("g", "a", "infinite_grid", 40j),),
        loads=(ShuntLoad("l", "b", 40j),))
    amps = oracle_solve(net, None).branch_currents["ab"]
    i_base = 10e6 / (math.sqrt(3.0) * 20e3)
    assert abs(amps) == pytest.approx(0.5 * i_base, rel=1e-4)


def test_steady_state_bundled_matches_frozen(bundled_net, expected):
    snet = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
    currents = oracle_solve(snet, None).branch_currents
    for r in snet.relays:
        assert close(abs(currents[r.branch]), expected["steady_no_dg"][r.id])


def test_steady_state_bundled_near_table_load_flow(bundled_net):
    # relay-1 feeder loading lands near the published 558 A
    snet = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
    currents = oracle_solve(snet, None).branch_currents
    amps = abs(currents[bundled_net.relay_by_id("relay1").branch])
    assert amps == pytest.approx(558.0, rel=0.05)


# --- solve_fault ------------------------------------------------------------


def test_single_bus_bolted_fault_is_ten_pu():
    net = Network(buses=(Bus("a", 20000.0),), branches=(),
                  sources=(Source("g", "a", "infinite_grid", 4j),))
    res = solve_fault(net, FaultSpec("a"))
    i_base = 10e6 / (math.sqrt(3.0) * 20e3)
    assert res.fault_current_a == pytest.approx(10.0 * i_base, rel=1e-12)
    orc = oracle_solve(net, FaultSpec("a"))
    assert orc.fault_current_a == pytest.approx(10.0 * i_base, rel=1e-12)
    # angle -90 deg: purely negative-imaginary phasor
    assert orc.fault_current_c.real == pytest.approx(0.0, abs=1e-9)
    assert orc.fault_current_c.imag == pytest.approx(-10.0 * i_base,
                                                     rel=1e-12)


@pytest.mark.parametrize("side", ["from", "to"])
def test_relay_current_across_a_transformer(side):
    # a 20 kV grid feeds a 0.4 kV bus through a transformer whose ohms are
    # stated on either side; its relay reads amps on the from (20 kV) side.
    # The hand value is in SI units: the phase voltage at 0.4 kV over the
    # loop, the source's ohms referred to 0.4 kV
    z_s, z_t = 0.5 + 4j, 0.002 + 0.012j  # ohms, at 20 kV and at 0.4 kV
    ratio = 0.4 / 20.0
    net = Network(
        buses=(Bus("hv", 20000.0), Bus("lv", 400.0)),
        branches=(Branch("tx", "hv", "lv", "transformer",
                         z_t if side == "to" else z_t / ratio ** 2, side),),
        sources=(Source("grid", "hv", "infinite_grid", z_s),),
        relays=(RelaySpec("rtx", "tx", 100.0, 0.1,
                          curve_family("iec_standard_inverse")),))
    assert validate(net) == []
    i_lv = abs(400.0 / math.sqrt(3.0) / (z_s * ratio ** 2 + z_t))
    for route in (solve_fault, oracle_solve):
        res = route(net, FaultSpec("lv"))
        assert close(res.fault_current_a, i_lv), route
        assert close(res.relay_currents["rtx"], i_lv * ratio), route


def test_bundled_fault_levels_near_published(bundled_net):
    s0 = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
    assert solve_fault(s0, FaultSpec("bus3")).relay_currents["relay2"] \
        == pytest.approx(981.81, rel=0.05)
    s1 = build_scenario_net(bundled_net, SCENARIOS["s1_dg1"])
    assert solve_fault(s1, FaultSpec("bus3")).relay_currents["relay2"] \
        == pytest.approx(1066.52, rel=0.05)


def test_unknown_fault_bus(bundled_net):
    for route in (solve_fault, oracle_solve):
        with pytest.raises(ValueError, match="bus99"):
            route(bundled_net, FaultSpec("bus99"))


def test_fault_result_covers_all_relays(bundled_net):
    res = solve_fault(bundled_net, FaultSpec("bus4"))
    assert set(res.relay_currents) == {r.id for r in bundled_net.relays}
    assert len(fault_voltages(bundled_net, "bus4")) == len(bundled_net.buses)


def test_equal_solves_give_equal_fault_results(bundled_net):
    # a FaultResult is its numbers: two solves of one fault compare equal,
    # and it holds no voltage profile
    assert FaultResult._fields == ("fault_bus", "fault_current_a",
                                   "relay_currents")
    states = LimiterStates(bundled_net)
    for r_ohm in (0.0, 200.0):
        first = states.solve(["bus3"], r_ohm)[0]
        assert first == states.solve(["bus3"], r_ohm)[0]
        assert first == LimiterStates(bundled_net).solve(["bus3"], r_ohm)[0]


@settings(deadline=None)
@given(seed=st.integers(0, 5000))
def test_dg_never_decreases_fault_current(seed):
    net = random_radial_net(seed, with_dg=False)
    dg = Source("dg", net.buses[-1].id, "sync_dg", 2 + 15j)
    with_dg = net._replace(sources=net.sources + (dg,))
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


def numbers(net, bus, r_ohm=0.0):
    """A single solve of the fault at bus and its voltage profile,
    comparable bit for bit: the voltages by their reprs, which tell -0.0
    from 0.0."""
    return (solve_fault(net, FaultSpec(bus), ufcl_state_ohm=r_ohm),
            repr(fault_voltages(net, bus, r_ohm)))


def assert_batch_matches(net, r_ohm):
    """An all-bus batch and its states' voltage profiles equal the single
    solves bit for bit, and the oracle to 1e-9: the fault current, and
    each branch's current from the batch states' voltage profile."""
    buses = net.bus_ids()
    states = LimiterStates(net)
    batch = states.solve(buses, r_ohm)
    assert [res.fault_bus for res in batch] == buses
    for bus, res in zip(buses, batch):
        volts = states.profile(bus, r_ohm)
        assert (res, repr(volts)) == numbers(net, bus, r_ohm), bus
        ref = oracle_solve(net, FaultSpec(bus), ufcl_state_ohm=r_ohm)
        assert close(res.fault_current_a, ref.fault_current_a), bus
        currents = branch_amps(net, volts, r_ohm)
        for br in net.branches:
            assert close(currents[br.id], ref.branch_currents[br.id]), (
                bus, br.id)


def sized_ohms(net, bus):
    """The limiter resistance that restores the bare-grid level at bus,
    the designated sizing bus."""
    bare = net._replace(sources=tuple(
        s for s in net.sources if s.kind == "infinite_grid"))
    target = solve_fault(bare, FaultSpec(bus)).fault_current_a
    r_star = size_ufcl(net._replace(ufcl=net.ufcl._replace(
        sizing_reference_a=target)), bus).r_star
    assert r_star > 0
    return r_star


def tie_states():
    """Each random_tie_net seed at R = 0 and at its sized resistance."""
    for seed in range(100):
        net, bus = random_tie_net(seed)
        yield net, 0.0
        yield net, sized_ohms(net, bus)


def test_batch_equals_single_and_oracle_on_tie_networks():
    for net, r_ohm in tie_states():
        assert_batch_matches(net, r_ohm)


def test_batch_equals_single_and_oracle_on_connected_networks():
    for seed in range(100):
        assert_batch_matches(random_connected_net(seed), 0.0)


def with_relays(net):
    """net with a relay on every third branch, the first included."""
    curve = curve_family("iec_standard_inverse")
    return net._replace(relays=tuple(
        RelaySpec(f"relay_{br.id}", br.id, 100.0, 0.1, curve)
        for br in net.branches[::3]))


@functools.cache
def large_nets():
    """Networks of 40-60 buses: radial with and without a DG, and meshed;
    the first seeds that draw 40 buses or more, each with a relay on every
    third branch. Drawn once per session (about 0.7 s); the networks are
    frozen."""
    nets = []
    for build in (lambda s: random_radial_net(s, max_buses=60),
                  lambda s: random_radial_net(s, max_buses=60, with_dg=True),
                  lambda s: random_connected_net(s, max_buses=60)):
        drawn = (build(seed) for seed in range(1000))
        nets += [with_relays(net) for net in drawn
                 if len(net.buses) >= 40][:5]
    return tuple(nets)


def test_batch_equals_single_on_large_networks():
    for net in large_nets():
        assert net.relays
        assert_batch_matches(net, 0.0)


def feeder_nets():
    """The benchmark's 50-bus feeders, seeds 1-3, every DG in service."""
    return tuple(feeder_net(50, seed) for seed in (1, 2, 3))


def test_batch_equals_single_and_oracle_on_feeders():
    for net in feeder_nets():
        assert len(net.buses) == 50 and net.relays
        for r_ohm in (0.0, sized_ohms(net, net.ufcl.sizing_fault_bus)):
            assert_batch_matches(net, r_ohm)


# --- the sparse route -------------------------------------------------------


def lapack_faults(net, r_ohm):
    """Each bus's fault current in amps and post-fault voltage profile,
    from LAPACK's inverse of the dense Y of _nodal's stamps with the tie
    restamped at r_ohm: the dense route that small networks once took,
    kept here as a reference that factorises Y at R itself."""
    pu = to_per_unit(net)
    index, _, stamps, injection = faultcalc._nodal(pu)
    ybus = dense(stamps)
    if r_ohm:
        tie = net.branch_by_id(net.ufcl.tie_branch)
        z = pu.branch_z_pu[tie.id]
        dy = 1.0 / (z + r_ohm / pu.z_base[tie.from_bus]) - 1.0 / z
        f, t = index[tie.from_bus], index[tie.to_bus]
        ybus[[f, t], [f, t]] += dy
        ybus[[f, t], [t, f]] -= dy
    z = np.linalg.inv(ybus)
    v = z @ np.array(injection)
    out = {}
    for bus, k in index.items():
        i_f = v[k] / z[k, k]
        out[bus] = (abs(i_f * pu.i_base[bus]), v - i_f * z[:, k])
    return out


def assert_sparse_route_matches(net, r_ohm, rel=1e-12):
    """The one route, the sparse LDL^T at every size, against the oracle
    to 1e-9, and against LAPACK on the dense Y to rel: the fault current
    relative, and each post-fault bus voltage in per-unit. Its batch
    equals its single solves bit for bit."""
    assert_batch_matches(net, r_ohm)
    dense_route = lapack_faults(net, r_ohm)
    states = LimiterStates(net)
    for res in states.solve(net.bus_ids(), r_ohm):
        amps, volts = dense_route[res.fault_bus]
        assert close(res.fault_current_a, amps, rel=rel)
        assert np.abs(np.array(states.profile(res.fault_bus, r_ohm))
                      - volts).max() <= rel


def test_sparse_route_on_random_networks():
    # random_connected_net's loops make the elimination fill in
    for seed in range(100):
        assert_sparse_route_matches(random_connected_net(seed), 0.0)
        assert_sparse_route_matches(
            random_radial_net(seed, with_dg=seed % 2 == 0), 0.0)
    for net, r_ohm in tie_states():
        assert_sparse_route_matches(net, r_ohm)
    for net in large_nets():
        assert_sparse_route_matches(net, 0.0)


@pytest.mark.parametrize("sid", sorted(SCENARIOS))
def test_sparse_route_on_bundled(bundled_net, sid):
    # the tie and the DG branch, near 0.006 ohm (about 7000 pu admittance),
    # leave the route and LAPACK each up to 6.5e-13 from the oracle, and up
    # to 1.3e-12 apart in the fault current and 3e-12 pu in the voltages
    snet = build_scenario_net(bundled_net, SCENARIOS[sid])
    for r_ohm in (0.0, 200.0):
        assert_sparse_route_matches(snet, r_ohm, rel=1e-11)


# the bench's feeder seeds; their R*, 2560, 640 and 1280 ohm, are read by
# the rank-one update from the states factorised at R = 0
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_route_on_a_200_bus_feeder_study(seed):
    # the study's own tables, upstream at the sized R* and downstream at
    # R = 0, against the oracle
    net = feeder_net(200, seed)
    dgs = frozenset(s.id for s in net.sources if s.kind != "infinite_grid")
    report = run_scenario(net, Scenario("feeder", dgs, ufcl_enabled=True,
                                        fault_buses=tuple(net.bus_ids())))
    sampled = report.fault_tables[::10]
    assert {t.ufcl_state_ohm for t in sampled} == {0.0, report.sizing.r_star}
    for t in sampled:
        ref = oracle_solve(net, FaultSpec(t.fault_bus), t.ufcl_state_ohm)
        assert close(t.fault_current_a, ref.fault_current_a), t.fault_bus
        for r in t.readings:
            assert close(r.current_a, ref.relay_currents[r.relay]), r.relay


def meshed(net):
    """net with a branch from bus4 back to bus1, closing the upstream
    chain bus1-bus2-bus3-bus4 into a loop: eliminating bus1, bus3 or bus4
    first fills in a branch across the loop."""
    return net._replace(branches=(
        *net.branches, Branch("b41", "bus4", "bus1", "line", 3 + 2j)))


# The tests below ran once on each of two routes, LAPACK on the dense Y
# and the sparse LDL^T. One route is left, so their ids now name the
# pattern it factorises: "sparse" the bundled grid as given, radial, with
# no fill, and "dense" the same grid meshed, whose elimination fills in.
PATTERNS = {"sparse": lambda net: net, "dense": meshed}


# the purely reactive island, whose pivot would be exactly zero, is the
# plain case; the others are named by their island impedance
@pytest.mark.parametrize("pattern, z_island", [
    pytest.param(pattern, z, id=pattern + ("" if z == 20j else f"-{z}"))
    for z in (20j, 3 + 7j, 17.3 + 5.9j, 1.3 + 2.1j, 0.4 + 0.9j)
    for pattern in ("sparse", "dense")])
def test_an_unearthed_island_is_singular_on_both_routes(bundled_net,
                                                         pattern, z_island):
    # two buses with no source or load, reached through the API, where
    # validate does not run; a resistive island branch leaves a pivot at
    # round-off rather than zero, which must not pass for a solution
    net = PATTERNS[pattern](bundled_net)
    net = net._replace(buses=(*net.buses, Bus("x1", 20000.0),
                              Bus("x2", 20000.0)),
                       branches=(*net.branches,
                                 Branch("x12", "x1", "x2", "line", z_island)))
    assert validate(net)
    with pytest.raises(ValueError, match="^Singular matrix: bus 'x1'"):
        solve_fault(net, FaultSpec("bus3"))


def test_a_zero_pivot_is_singular():
    # the factorisation's own guard, behind the path-to-ground check: an
    # exactly singular Y, two buses joined by one branch and no shunt
    y = ([2 + 0j, 2 + 0j], [{1: -2 + 0j}, {0: -2 + 0j}])
    with pytest.raises(ValueError, match="^Singular matrix$"):
        faultcalc._factor(y)


@pytest.mark.parametrize("pattern", ["sparse", "dense"])
def test_a_branch_looping_on_one_bus_changes_nothing(bundled_net, pattern):
    # validate rejects it; through the API it carries no current
    base = PATTERNS[pattern](bundled_net)
    net = base._replace(branches=(
        *base.branches, Branch("loop", "bus4", "bus4", "line", 3 + 7j)))
    for bus in base.bus_ids():
        assert numbers(net, bus) == numbers(base, bus)


def assert_update_matches_oracle(net, r_star):
    """One factorisation at R = 0, read at R* and far beyond by the
    rank-one update, against the oracle's solve at each R."""
    buses = net.bus_ids()
    states = LimiterStates(net)
    for r_ohm in (r_star, 1e4, 1e6):
        for bus, res in zip(buses, states.solve(buses, r_ohm)):
            ref = oracle_solve(net, FaultSpec(bus), ufcl_state_ohm=r_ohm)
            assert close(res.fault_current_a, ref.fault_current_a), (
                bus, r_ohm)
            currents = branch_amps(net, states.profile(bus, r_ohm), r_ohm)
            for br in net.branches:
                assert close(currents[br.id], ref.branch_currents[br.id]), (
                    bus, br.id)
            for rid, amps in res.relay_currents.items():
                assert close(amps, ref.relay_currents[rid]), (bus, rid)


def test_limiter_update_matches_oracle_on_tie_networks():
    for seed in range(100):
        net, bus = random_tie_net(seed)
        assert_update_matches_oracle(net, sized_ohms(net, bus))


@pytest.mark.parametrize("pattern", ["sparse", "dense"])
def test_limiter_update_matches_oracle_on_bundled(bundled_net, pattern):
    # every bundled scenario's states at R = 0, read by the update at the
    # sized resistance's range and beyond, radial and meshed
    net = PATTERNS[pattern](bundled_net)
    buses = net.bus_ids()
    for sid, scen in SCENARIOS.items():
        snet = build_scenario_net(net, scen)
        states = LimiterStates(snet)
        for r_ohm in (200.0, 1000.0):
            for bus, res in zip(buses, states.solve(buses, r_ohm)):
                ref = oracle_solve(snet, FaultSpec(bus), ufcl_state_ohm=r_ohm)
                assert close(res.fault_current_a, ref.fault_current_a), (
                    sid, bus, r_ohm)
                currents = branch_amps(snet, states.profile(bus, r_ohm),
                                       r_ohm)
                for br in snet.branches:
                    assert close(currents[br.id],
                                 ref.branch_currents[br.id]), (
                        sid, bus, r_ohm, br.id)
                for rid, amps in res.relay_currents.items():
                    assert close(amps, ref.relay_currents[rid]), (
                        sid, bus, r_ohm, rid)


def test_limiter_update_matches_oracle_on_feeders():
    for net in feeder_nets():
        assert net.relays
        assert_update_matches_oracle(
            net, sized_ohms(net, net.ufcl.sizing_fault_bus))


def test_batch_edges(bundled_net):
    assert solve_batch(bundled_net, []) == []
    with pytest.raises(ValueError, match="unknown fault bus 'bus99'"):
        solve_batch(bundled_net, [FaultSpec("bus3"), FaultSpec("bus99"),
                                  FaultSpec("bus4")])


def assert_grid_level_matches(net):
    # the bare-grid level read from the DG network's own solve, at every
    # bus: against a solve of the bare network and against the oracle
    bare = net._replace(sources=tuple(
        s for s in net.sources if s.kind == "infinite_grid"))
    states = LimiterStates(net)
    for bus in net.bus_ids():
        got = states.grid_level(bus)
        assert type(got) is float
        assert close(got, solve_fault(bare, FaultSpec(bus)).fault_current_a,
                     rel=1e-11, floor=0.0), bus
        assert close(got, oracle_solve(bare, FaultSpec(bus)).fault_current_a,
                     floor=0.0), bus


@pytest.mark.parametrize("sid", ["s2_dg1_ufcl", "s4_dg1_dg2_ufcl",
                                 "s6_induction_dg1_ufcl"])
def test_grid_level_on_bundled(bundled_net, sid):
    assert_grid_level_matches(build_scenario_net(bundled_net, SCENARIOS[sid]))


def test_grid_level_on_tie_networks():
    for seed in range(100):
        assert_grid_level_matches(random_tie_net(seed)[0])


def test_grid_level_on_feeders():
    for net in feeder_nets():
        assert sum(s.kind != "infinite_grid" for s in net.sources) > 1
        assert_grid_level_matches(net)


def test_grid_level_two_dgs_on_one_bus_and_none(bundled_net):
    s6 = build_scenario_net(bundled_net, SCENARIOS["s6_induction_dg1_ufcl"])
    extra = Source("dg3", "dgbus", "sync_dg", 3 + 25j)
    assert_grid_level_matches(s6._replace(sources=(*s6.sources, extra)))
    assert_grid_level_matches(
        build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"]))


# --- thevenin ---------------------------------------------------------------


def thevenin(net):
    """Driving-point impedance of every bus in per-unit (EMFs shorted):
    the diagonal of the inverse of Y."""
    ybus, ix = build_ybus(net)
    zbus = np.linalg.inv(np.array(ybus))
    return {bus: complex(zbus[k, k]) for bus, k in ix.items()}


def test_thevenin_single_source_bus():
    net = Network(buses=(Bus("a", 20000.0),), branches=(),
                  sources=(Source("g", "a", "infinite_grid", 4j),))
    zth = thevenin(net)["a"]
    assert zth == pytest.approx(0.1j, rel=1e-12)


def test_thevenin_series_chain():
    net = Network(
        buses=(Bus("a", 20000.0), Bus("b", 20000.0), Bus("c", 20000.0)),
        branches=(Branch("ab", "a", "b", "line", 4 + 8j),
                  Branch("bc", "b", "c", "line", 2 + 2j)),
        sources=(Source("g", "a", "infinite_grid", 1 + 4j),))
    zth = thevenin(net)["c"]
    assert zth * 40.0 == pytest.approx((1 + 4j) + (4 + 8j) + (2 + 2j),
                                       rel=1e-12)


@settings(deadline=None)
@given(seed=st.integers(0, 5000))
def test_adding_dg_never_raises_thevenin(seed):
    net = random_connected_net(seed)
    dg = Source("extra_dg", net.buses[-1].id, "sync_dg", 3 + 20j)
    with_dg = net._replace(sources=net.sources + (dg,))
    z0, z1 = thevenin(net), thevenin(with_dg)
    for b in net.buses:
        assert abs(z1[b.id]) <= abs(z0[b.id]) * (1 + 1e-12)


# --- superposition ----------------------------------------------------------


@settings(deadline=None)
@given(seed=st.integers(0, 3000))
def test_per_source_contributions_sum_to_total(seed):
    net = random_connected_net(seed)
    bus = net.buses[seed % len(net.buses)].id
    total = np.array(fault_voltages(net, bus))
    parts = 0j
    for s in net.sources:
        solo = net._replace(sources=tuple(
            src if src.id == s.id else src._replace(emf_pu=0.0)
            for src in net.sources))
        parts += np.array(fault_voltages(solo, bus))
    assert np.abs(parts - total).max() <= \
        1e-9 * max(1.0, np.abs(total).max())


def test_fault_current_is_prefault_voltage_over_thevenin(bundled_net):
    pu = to_per_unit(bundled_net)
    z_th = thevenin(bundled_net)
    for bus in ("bus3", "bus6", "dgbus"):
        v_pre = oracle_solve(bundled_net, None).bus_voltages_pu[
            bundled_net.bus_ids().index(bus)]
        i_pu = v_pre / z_th[bus]
        got = solve_fault(bundled_net, FaultSpec(bus)).fault_current_a
        assert close(got, abs(i_pu) * pu.i_base[bus])


# --- oracle route -----------------------------------------------------------


def kcl_residuals(net, bus_voltages_pu, r_ohm=0.0):
    """Each bus's complex node balance in pu from a voltage profile: the
    current leaving through its branches (branch_amps, with r_ohm on the
    tie) and loads, less what its sources inject. A bus that balances
    reads 0, and a faulted bus minus its fault current."""
    pu = to_per_unit(net)
    v = dict(zip(net.bus_ids(), bus_voltages_pu))
    amps = branch_amps(net, bus_voltages_pu, r_ohm)
    res = {}
    for b in net.buses:
        acc = 0j
        for br in net.branches:
            if br.from_bus == b.id:
                acc += amps[br.id] / pu.i_base[br.from_bus]
            elif br.to_bus == b.id:
                acc -= amps[br.id] / pu.i_base[br.from_bus]
        for l in net.loads:
            if l.bus == b.id:
                acc += v[b.id] / pu.load_z_pu[l.id]
        for s in net.sources:
            if s.bus == b.id:
                z = pu.source_z_pu[s.id]
                if s.kind == "induction_dg":
                    z = z * 1.05
                acc -= (s.emf_pu - v[b.id]) / z
        res[b.id] = acc
    return res


def test_an_oracle_result_reads_as_a_fault_result(bundled_net):
    # OracleResult is no FaultResult subclass: it leads with the same
    # fields, so unpacking or indexing either reads the same three values;
    # the voltage profile, a list, follows them
    assert OracleResult._fields[:3] == FaultResult._fields
    ref = oracle_solve(bundled_net, FaultSpec("bus3"))
    bus, amps, relays, volts = ref[:4]
    assert (bus, amps, relays) == ("bus3", ref.fault_current_a,
                                   ref.relay_currents)
    assert volts is ref.bus_voltages_pu
    assert type(volts) is list and len(volts) == len(bundled_net.buses)


def test_oracle_agrees_on_bundled_everywhere(bundled_net):
    for sid, scen in SCENARIOS.items():
        snet = build_scenario_net(bundled_net, scen)
        for bus in ("bus3", "bus4", "bus6", "dgbus"):
            for state in (0.0, 200.0):
                a = solve_fault(snet, FaultSpec(bus), ufcl_state_ohm=state)
                b = oracle_solve(snet, FaultSpec(bus), ufcl_state_ohm=state)
                assert close(a.fault_current_a, b.fault_current_a), \
                    (sid, bus, state)
                currents = branch_amps(
                    snet, fault_voltages(snet, bus, state), state)
                for br in snet.branches:
                    assert close(abs(currents[br.id]),
                                 abs(b.branch_currents[br.id])), \
                        (sid, bus, state, br.id)


def test_oracle_kcl_on_random_radial_networks(bundled_net):
    for seed in range(100):
        net = random_radial_net(seed, with_dg=(seed % 2 == 0))
        sol = oracle_solve(net, None)
        assert max(map(abs, kcl_residuals(
            net, sol.bus_voltages_pu).values())) < 1e-9
        bus = net.buses[seed % len(net.buses)].id
        post = oracle_solve(net, FaultSpec(bus))
        residuals = kcl_residuals(net, post.bus_voltages_pu)
        residuals[bus] += post.fault_current_c / to_per_unit(net).i_base[bus]
        assert max(map(abs, residuals.values())) < 1e-9


def assert_reported_kcl(net, r_ohm=0.0):
    """Every bus of an all-bus batch solve balances on its reported
    voltages, the faulted bus by the reported fault current."""
    pu = to_per_unit(net)
    states = LimiterStates(net)
    for res in states.solve(net.bus_ids(), r_ohm):
        residuals = kcl_residuals(net, states.profile(res.fault_bus, r_ohm),
                                  r_ohm)
        i_f = abs(residuals.pop(res.fault_bus))
        assert abs(i_f - res.fault_current_a / pu.i_base[res.fault_bus]) \
            < 1e-9, (res.fault_bus, r_ohm)
        assert max(map(abs, residuals.values())) < 1e-9, (res.fault_bus,
                                                          r_ohm)


def test_production_kcl_on_random_networks():
    for seed in range(100):
        assert_reported_kcl(random_radial_net(seed))
        assert_reported_kcl(random_radial_net(seed, with_dg=True))
        assert_reported_kcl(random_connected_net(seed))
    for net, r_ohm in tie_states():
        assert_reported_kcl(net, r_ohm)
    for net in large_nets():
        assert_reported_kcl(net)
