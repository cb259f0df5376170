"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every expected number here is pinned; tolerances are stated next to each
assertion. The suite exercises the public API only.
"""

import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from protcoord.coordination import check_pairs, optimize_tds
from protcoord.faultcalc import FaultSpec, oracle_solve, solve_fault
from protcoord.netmodel import Branch, Bus, CoordinationPair, Network, \
    RelaySpec
from protcoord.relaycurve import CurveConstants, operate_time
from protcoord.studio import SCENARIOS, build_scenario_net
from protcoord.ufcl import downstream_buses, size_ufcl

from conftest import random_connected_net, random_tie_net


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _lines(number, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number} ({label}): FAIL")
            raise
        with capsys.disabled():
            print(f"criterion {number} ({label}): PASS")
    return _lines


def close(a, b, rel=1e-9, floor=1.0):
    return abs(a - b) <= rel * max(floor, abs(b))


# --- 1: recorded coordination verdicts from externally supplied times -------

# (t_main, t_backup, verdict, cti to printed digits; None skips the check)
RECORDED_TIMES = {
    "dg1_no_limiter": {
        "bus3": (0.39, 1.09, "too_slow", 0.70),
        "bus4": (0.21, 0.49, "too_fast", 0.28),
        "bus6": (0.029, 0.342, "ok", 0.313),
        "dgbus": (0.4521, 0.083, "backup_first", None),
    },
    "dg1_with_limiter": {
        "bus3": (0.46, 1.01, "ok", 0.55),
        "bus4": (0.221, 0.562, "ok", 0.341),
        "bus6": (0.029, 0.342, "ok", 0.313),
        "dgbus": (0.4521, 0.083, "backup_first", None),
    },
    "two_dg_no_limiter": {
        "bus3": (0.29, 1.18, "too_slow", 0.89),
        "bus4": (0.28, 0.545, "too_fast", 0.265),
    },
    "two_dg_with_limiter": {
        "bus3": (0.49, 1.02, "ok", 0.53),
        "bus4": (0.235, 0.5628, "ok", 0.3278),
    },
    "induction_no_limiter": {
        "bus3": (0.374, 1.21, "too_slow", 0.836),
        "bus4": (0.191, 0.47, "too_fast", 0.279),
    },
    "induction_with_limiter": {
        "bus3": (0.42, 0.994, "ok", 0.574),
        "bus4": (0.21, 0.558, "ok", 0.348),
    },
}


def test_criterion_1_recorded_verdicts(bundled_net, announce):
    with announce(1, "recorded coordination verdicts"):
        t0 = time.perf_counter()
        for case, rows in RECORDED_TIMES.items():
            pairs = tuple(p for p in bundled_net.pairs
                          if p.fault_bus in rows)
            net = replace(bundled_net, pairs=pairs)
            times = {}
            for p in pairs:
                tm, tb, _, _ = rows[p.fault_bus]
                times[p.fault_bus] = {p.main: tm, p.backup: tb}
            report = check_pairs(net, times)
            got = {r.fault_bus: r for r in report.rows}
            for bus, (tm, tb, verdict, cti) in rows.items():
                assert got[bus].verdict == verdict, (case, bus)
                if cti is not None:
                    assert got[bus].cti_s == pytest.approx(cti, abs=5e-5), \
                        (case, bus)
        assert time.perf_counter() - t0 < 1.0


# --- 2: dual-route agreement -------------------------------------------------


def _oracle_states(snet, scenario, buses):
    if not scenario.ufcl_enabled:
        return {b: 0.0 for b in buses}
    u = snet.ufcl
    down = downstream_buses(snet, u)
    return {b: (u.r_normal if b in down else u.r_limit) for b in buses}


def _routes_agree(net, fault_bus, state=0.0):
    a = solve_fault(net, FaultSpec(fault_bus), ufcl_state_ohm=state)
    b = oracle_solve(net, FaultSpec(fault_bus), ufcl_state_ohm=state)
    assert close(abs(a.fault_current_a), abs(b.fault_current_a))
    for br, amps in a.branch_currents.items():
        assert close(abs(amps), abs(b.branch_currents[br])), (fault_bus, br)


def test_criterion_2_oracle_agreement(bundled_net, announce):
    with announce(2, "nodal solution matches independent oracle"):
        t0 = time.perf_counter()
        buses = bundled_net.bus_ids()
        for scenario in SCENARIOS.values():
            snet = build_scenario_net(bundled_net, scenario)
            states = _oracle_states(snet, scenario, buses)
            for bus in buses:
                _routes_agree(snet, bus, states[bus])
        for seed in range(500):
            net = random_connected_net(seed)
            ids = [b.id for b in net.buses]
            _routes_agree(net, ids[seed % len(ids)])
        assert time.perf_counter() - t0 < 30.0


# --- 3: recorded short-circuit levels ----------------------------------------


def test_criterion_3_recorded_fault_levels(bundled_net, announce):
    with announce(3, "recorded short-circuit levels within 5%"):
        s0 = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
        for bus, amps in {"bus3": 981.81, "bus4": 684.9,
                          "bus6": 287.8, "dgbus": 1091.77}.items():
            got = abs(solve_fault(s0, FaultSpec(bus)).fault_current_a)
            assert got == pytest.approx(amps, rel=0.05), bus

        s1 = build_scenario_net(bundled_net, SCENARIOS["s1_dg1"])
        got = solve_fault(s1, FaultSpec("bus3")).relay_currents["relay2"]
        assert got == pytest.approx(1066.52, rel=0.05)

        s3 = build_scenario_net(bundled_net, SCENARIOS["s3_dg1_dg2"])
        got = solve_fault(s3, FaultSpec("bus3")).relay_currents["relay2"]
        assert got == pytest.approx(1124.2, rel=0.05)


# --- 4: limiter sizing restores the pre-DG level -----------------------------


def test_criterion_4_sizing_restores_level(bundled_net, expected, announce,
                                           capsys):
    with announce(4, "limiter sizing restores the target level"):
        # bundled study: r_star re-solved through the oracle route
        for sid in ("s2_dg1_ufcl", "s4_dg1_dg2_ufcl",
                    "s6_induction_dg1_ufcl"):
            snet = build_scenario_net(bundled_net, SCENARIOS[sid])
            target = snet.ufcl.sizing_reference_a
            result = size_ufcl(snet, "bus3", target)
            resolved = abs(oracle_solve(
                snet, FaultSpec("bus3"),
                ufcl_state_ohm=result.r_star).fault_current_a)
            assert abs(resolved - target) / target <= 0.005, sid

        # 100 random radial nets with one DG behind a tie
        for seed in range(100):
            net, bus = random_tie_net(seed)
            bare = replace(net, sources=tuple(
                s for s in net.sources if s.kind == "infinite_grid"))
            target = abs(solve_fault(bare, FaultSpec(bus)).fault_current_a)
            r = size_ufcl(net, bus, target)
            resolved = abs(oracle_solve(
                net, FaultSpec(bus),
                ufcl_state_ohm=r.r_star).fault_current_a)
            assert abs(resolved - target) / target <= 0.005, seed

        # diagnostic only: the recorded study sized the limiter at 184 ohm
        # (one DG) and 196 ohm (two DG); the reconstructed network lands on
        # 200.0 ohm for both. Flag if it ever drifts outside 15%.
        snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
        r2 = size_ufcl(snet, "bus3", snet.ufcl.sizing_reference_a).r_star
        snet = build_scenario_net(bundled_net, SCENARIOS["s4_dg1_dg2_ufcl"])
        r4 = size_ufcl(snet, "bus3", snet.ufcl.sizing_reference_a).r_star
        assert abs(r2 - 184.0) / 184.0 <= 0.15
        assert abs(r4 - 196.0) / 196.0 <= 0.15
        with capsys.disabled():
            print(f"criterion 4 note: r_star {r2} / {r4} ohm vs recorded "
                  f"184 / 196 ohm ({(r2 - 184) / 184:+.1%} / "
                  f"{(r4 - 196) / 196:+.1%}); deviation reflects the "
                  f"reconstructed network data, bound is 15%")


# --- 5: limiter is invisible to downstream faults -----------------------------


def test_criterion_5_downstream_invariance(bundled_net, announce):
    with announce(5, "downstream faults unaffected by the limiter"):
        cases = [("s1_dg1", "s2_dg1_ufcl"),
                 ("s3_dg1_dg2", "s4_dg1_dg2_ufcl"),
                 ("s5_induction_dg1", "s6_induction_dg1_ufcl")]
        for plain_id, limited_id in cases:
            plain = build_scenario_net(bundled_net, SCENARIOS[plain_id])
            limited = build_scenario_net(bundled_net, SCENARIOS[limited_id])
            for bus in ("bus5", "bus6", "dgbus"):
                state = _oracle_states(limited, SCENARIOS[limited_id],
                                       [bus])[bus]
                assert state == 0.0  # r_normal: nothing inserted
                a = solve_fault(plain, FaultSpec(bus))
                b = solve_fault(limited, FaultSpec(bus),
                                ufcl_state_ohm=state)
                assert close(abs(a.fault_current_a),
                             abs(b.fault_current_a), rel=1e-12)
                for rid, amps in a.relay_currents.items():
                    assert close(amps, b.relay_currents[rid], rel=1e-12)
                for br, amps in a.branch_currents.items():
                    assert abs(amps - b.branch_currents[br]) <= \
                        1e-12 * max(1.0, abs(amps))


# --- 6: inverse-time curve properties ----------------------------------------


def test_criterion_6_curve_properties(announce):
    with announce(6, "inverse-time curve properties"):
        rng = random.Random(20260816)
        for _ in range(200):
            a = rng.uniform(1e-3, 100.0)
            b = rng.uniform(0.0, 1.0)
            c = rng.uniform(1e-2, 2.0)
            tds = rng.uniform(0.05, 3.0)
            relay = RelaySpec("r", "br", 100.0, tds,
                              CurveConstants(a, b, c))

            # no operation at or below pickup
            assert operate_time(relay, 100.0) is None
            assert operate_time(relay, rng.uniform(0.0, 100.0)) is None

            # strictly slower closer to pickup
            m1, m2 = sorted((rng.uniform(1.01, 20.0),
                             rng.uniform(1.01, 20.0)))
            if m1 != m2:
                t1 = operate_time(relay, 100.0 * m1)
                t2 = operate_time(relay, 100.0 * m2)
                assert t1 > t2

            # unbounded growth approaching pickup
            near = operate_time(relay, 100.0 * (1.0 + 1e-9))
            far = operate_time(relay, 200.0)
            assert near > 1e3 * far

            # dial scales exactly
            t = operate_time(relay, 250.0)
            t2 = operate_time(replace(relay, tds=2.0 * tds), 250.0)
            assert t2 == 2.0 * t


# --- 7: dial optimization is grid-optimal ------------------------------------


def _chain(n):
    buses = tuple(Bus(f"f{i}", 20000.0) for i in range(n))
    branches = tuple(Branch(f"b{i}", "f0", "f0", "line", 1j)
                     for i in range(n))
    relays = tuple(RelaySpec(f"r{i}", f"b{i}", 100.0, 1.0,
                             CurveConstants(0.14, 0.0, 0.02))
                   for i in range(n))
    pairs = tuple(CoordinationPair(f"r{i}", f"r{i + 1}", f"f{i}")
                  for i in range(n - 1))
    return Network(buses=buses, branches=branches, sources=(),
                   relays=relays, pairs=pairs)


def _fed(net, currents):
    return {p.fault_bus: dict(currents) for p in net.pairs}


def _grid(lo, step, hi):
    out = []
    k = 0
    while lo + k * step <= hi + 1e-12:
        out.append(lo + k * step)
        k += 1
    return out


def _feasible(net, res, tds):
    for p in net.pairs:
        cur = res[p.fault_bus]
        tm = operate_time(replace(net.relay_by_id(p.main), tds=tds[p.main]),
                          cur[p.main])
        tb = operate_time(replace(net.relay_by_id(p.backup),
                                  tds=tds[p.backup]), cur[p.backup])
        if tm is None:
            continue
        if tb is None or tb - tm < 0.3:
            return False
    return True


def _exhaustive(net, res, lo, step, hi):
    ids = [r.id for r in net.relays]
    best = None
    for combo in itertools.product(_grid(lo, step, hi), repeat=len(ids)):
        tds = dict(zip(ids, combo))
        if _feasible(net, res, tds) and (
                best is None or sum(combo) < sum(best.values())):
            best = tds
    return best


def test_criterion_7_tds_optimization(announce):
    with announce(7, "dial optimization matches exhaustive search"):
        t0 = time.perf_counter()

        # worked two-relay example: identical curves, both see twice
        # pickup, minimum dial 0.1 in steps of 0.05
        two = Network(
            buses=(Bus("f0", 20000.0),),
            branches=(Branch("b0", "f0", "f0", "line", 1j),
                      Branch("b1", "f0", "f0", "line", 1j)),
            sources=(),
            relays=(RelaySpec("r0", "b0", 100.0, 1.0,
                              CurveConstants(1.0, 0.0, 1.0)),
                    RelaySpec("r1", "b1", 100.0, 1.0,
                              CurveConstants(1.0, 0.0, 1.0))),
            pairs=(CoordinationPair("r0", "r1", "f0"),))
        res = _fed(two, {"r0": 200.0, "r1": 200.0})
        got = optimize_tds(two, list(two.pairs), res,
                           tds_min=0.1, tds_step=0.05)
        assert got["r0"] == pytest.approx(0.1)
        assert got["r1"] == pytest.approx(0.4)
        want = _exhaustive(two, res, 0.1, 0.05, 3.0)
        for rid in got:
            assert got[rid] == pytest.approx(want[rid])

        # three-relay chain, coarser cap to keep the brute force honest
        three = _chain(3)
        res3 = _fed(three, {"r0": 600.0, "r1": 450.0, "r2": 300.0})
        got3 = optimize_tds(three, list(three.pairs), res3,
                            tds_max=1.5)
        want3 = _exhaustive(three, res3, 0.05, 0.05, 1.5)
        assert want3 is not None
        for rid in got3:
            assert got3[rid] == pytest.approx(want3[rid])

        # minimality: dropping any single dial one grid step breaks a pair
        for rid, val in got3.items():
            if val <= 0.05 + 1e-12:
                continue
            worse = dict(got3)
            worse[rid] = val - 0.05
            assert not _feasible(three, res3, worse), rid

        assert time.perf_counter() - t0 < 10.0
