import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from protcoord.coordination import (CSV_COLUMNS, TdsInfeasibleError,
                                    check_pairs, format_number,
                                    optimize_tds, report_to_csv)
from protcoord.netmodel import (Branch, Bus, CoordinationPair, Network,
                                RelaySpec)
from protcoord.relaycurve import CurveConstants, operate_time


def chain_net(n_relays, pickups=None, curves=None):
    """n relays on stub branches; relay i is backed by relay i+1 at fault
    bus f{i}."""
    pickups = pickups or [100.0] * n_relays
    curves = curves or [CurveConstants(1.0, 0.0, 1.0)] * n_relays
    buses = tuple(Bus(f"f{i}", 20000.0) for i in range(max(1, n_relays - 1)))
    branches = tuple(Branch(f"b{i}", "f0", "f0", "line", 1j)
                     for i in range(n_relays))
    relays = tuple(RelaySpec(f"r{i}", f"b{i}", pickups[i], 1.0,
                             curves[i]) for i in range(n_relays))
    pairs = tuple(CoordinationPair(f"r{i}", f"r{i + 1}", f"f{i}")
                  for i in range(n_relays - 1))
    return Network(buses=buses, branches=branches, sources=(),
                   relays=relays, pairs=pairs)


def curve_times(net, currents):
    """Operate time of every relay in currents, at its own dial."""
    return {bus: {rid: operate_time(net.relay_by_id(rid), amps)
                  for rid, amps in at_bus.items()}
            for bus, at_bus in currents.items()}


def test_compute_cti_published_rows():
    assert graded(0.39, 1.09).cti_s == pytest.approx(0.70)
    assert graded(0.46, 1.01).cti_s == pytest.approx(0.55)
    assert graded(0.5, 0.5).cti_s == 0.0
    assert graded(0.4521, 0.083).cti_s < 0


def graded(t_main, t_backup):
    net = chain_net(2)
    res = {"f0": {"r0": t_main, "r1": t_backup}}
    report = check_pairs(net, res)
    return report.rows[0]


@pytest.mark.parametrize("tm,tb,verdict", [
    (0.3, 0.6, "ok"),        # cti exactly at lo
    (0.1, 0.7, "ok"),        # cti exactly at hi
    (0.41, 0.7, "too_fast"),
    (0.05, 0.7, "too_slow"),
    (0.7, 0.4, "backup_first"),
    (None, 0.4, "no_trip"),
    (0.4, None, "no_trip"),
])
def test_verdict_bands_inclusive(tm, tb, verdict):
    assert graded(tm, tb).verdict == verdict


def test_check_pairs_from_fault_result():
    net = chain_net(2)
    currents = {"f0": {"r0": 200.0, "r1": 150.0}}
    row = check_pairs(net, curve_times(net, currents), currents).rows[0]
    # trivial curve: t = 1/(M-1)
    assert row.t_main_s == pytest.approx(1.0)
    assert row.t_backup_s == pytest.approx(2.0)
    assert row.i_main_a == 200.0 and row.i_backup_a == 150.0
    assert row.verdict == "too_slow"


def test_check_pairs_missing_result():
    with pytest.raises(ValueError, match="no operate times for bus 'f0'"):
        check_pairs(chain_net(2), {})


def test_check_pairs_missing_relay_time():
    with pytest.raises(ValueError, match="r1"):
        check_pairs(chain_net(2), {"f0": {"r0": 0.4}})


def test_check_pairs_order_independent():
    net = chain_net(3)
    res = {"f0": {"r0": 0.2, "r1": 0.55, "r2": 9.9},
           "f1": {"r0": 0.1, "r1": 0.3, "r2": 0.75}}
    fwd = check_pairs(net, res)
    rev = check_pairs(
        Network(buses=net.buses, branches=net.branches, sources=(),
                relays=net.relays, pairs=tuple(reversed(net.pairs))), res)
    by_key = {(r.main, r.backup): r.verdict for r in rev.rows}
    for row in fwd.rows:
        assert by_key[(row.main, row.backup)] == row.verdict


@given(k=st.floats(min_value=1e-3, max_value=1e3),
       m=st.floats(min_value=0.2, max_value=20.0))
def test_scaling_currents_and_pickup_together_is_invariant(k, m):
    r1 = RelaySpec("r", "b", 100.0, 0.7,
                   CurveConstants(0.14, 0.0, 0.02))
    rk = RelaySpec("r", "b", 100.0 * k, 0.7,
                   CurveConstants(0.14, 0.0, 0.02))
    t1 = operate_time(r1, 100.0 * m)
    tk = operate_time(rk, 100.0 * k * m)
    if t1 is None:
        assert tk is None
    else:
        assert tk == pytest.approx(t1, rel=1e-9)


# --- optimize_tds -----------------------------------------------------------


@pytest.mark.parametrize("tds_min, tds_step, want_r1", [
    (0.1, 0.05, 0.4),
    # grids where the backup's time at t_main + CTI_MIN rounds just below
    # it: the pick must be graded by check_pairs' rule, not a
    # rearrangement of it
    (0.03, 0.01, 0.34),
    (0.15, 0.01, 0.46),
])
def test_optimize_tds_two_relay_example(tds_min, tds_step, want_r1):
    # identical curves, M=2 both: t = tds/(M-1) = tds; backup needs
    # t_main + 0.3
    net = chain_net(2)
    res = {"f0": {"r0": 200.0, "r1": 200.0}}
    args = (net, list(net.pairs), res, tds_min, tds_step, 3.0)
    got = optimize_tds(*args)
    assert got == brute_force(*args)
    assert got == {"r0": tds_min, "r1": pytest.approx(want_r1)}
    tuned = replace(net, relays=tuple(replace(r, tds=got[r.id])
                                      for r in net.relays))
    rows = check_pairs(tuned, curve_times(tuned, res)).rows
    assert [r.verdict for r in rows] == ["ok"]


def test_optimize_tds_lone_relay_gets_minimum():
    net = chain_net(1)
    got = optimize_tds(net, [], {}, tds_min=0.05, tds_step=0.05)
    assert got == {"r0": 0.05}


def brute_force(net, pairs, res, tds_min, tds_step, tds_max):
    grid = []
    k = 0
    while tds_min + k * tds_step <= tds_max + 1e-12:
        grid.append(tds_min + k * tds_step)
        k += 1
    # operate time of each pair's relays at every grid value, computed once
    table = {}
    for i, p in enumerate(pairs):
        cur = res[p.fault_bus]
        for rid in (p.main, p.backup):
            table[i, rid] = {t: _time(net, rid, t, cur[rid]) for t in grid}
    ids = [r.id for r in net.relays]
    best = None
    for combo in itertools.product(grid, repeat=len(ids)):
        tds = dict(zip(ids, combo))
        ok = True
        for i, p in enumerate(pairs):
            tm = table[i, p.main][tds[p.main]]
            tb = table[i, p.backup][tds[p.backup]]
            if tm is None:
                continue
            if tb is None or tb - tm < 0.3:
                ok = False
                break
        if ok and (best is None or sum(combo) < sum(best.values())):
            best = tds
    return best


def _time(net, rid, tds, amps):
    return operate_time(replace(net.relay_by_id(rid), tds=tds), amps)


def test_optimize_tds_matches_brute_force_on_random_chains():
    rng = random.Random(7)
    for _ in range(8):
        n = rng.choice([2, 3])
        pickups = [rng.uniform(50, 200) for _ in range(n)]
        curves = [CurveConstants(rng.uniform(0.05, 2.0), 0.0,
                                 rng.uniform(0.5, 1.5)) for _ in range(n)]
        net = chain_net(n, pickups, curves)
        res = {f"f{i}": {
            f"r{j}": pickups[j] * rng.uniform(2.0, 8.0) for j in range(n)}
            for i in range(n - 1)}
        args = (net, list(net.pairs), res, 0.05, 0.05, 3.0)
        try:
            got = optimize_tds(*args)
        except TdsInfeasibleError:
            assert brute_force(*args) is None
            continue
        want = brute_force(*args)
        assert want is not None
        for rid in got:
            assert got[rid] == pytest.approx(want[rid])


def test_optimize_tds_infeasible_is_named():
    # backup barely above pickup: its time exceeds any reachable floor only
    # for huge tds; cap at 0.1 forces failure
    net = chain_net(2)
    res = {"f0": {"r0": 200.0, "r1": 2000000.0}}
    with pytest.raises(TdsInfeasibleError, match="r1"):
        optimize_tds(net, list(net.pairs), res, tds_max=0.1)


def test_optimize_tds_backup_below_pickup_infeasible():
    net = chain_net(2)
    res = {"f0": {"r0": 200.0, "r1": 50.0}}
    with pytest.raises(TdsInfeasibleError):
        optimize_tds(net, list(net.pairs), res)


def test_optimize_tds_needs_currents_for_every_pair():
    net = chain_net(2)
    pairs = [CoordinationPair("r0", "r1", "bus3")]
    with pytest.raises(ValueError, match="no fault currents for bus 'bus3'"):
        optimize_tds(net, pairs, {"f0": {"r0": 200.0, "r1": 200.0}})


def test_optimize_tds_main_below_pickup_sets_no_floor():
    # r0 sees half its pickup and never trips, so r1 has no CTI to keep
    net = chain_net(2)
    res = {"f0": {"r0": 50.0, "r1": 200.0}}
    got = optimize_tds(net, list(net.pairs), res, tds_min=0.1, tds_step=0.05)
    assert got == {"r0": 0.1, "r1": 0.1}


def test_optimize_tds_rejects_cycles():
    net = chain_net(2)
    pairs = [CoordinationPair("r0", "r1", "f0"),
             CoordinationPair("r1", "r0", "f0")]
    net = Network(buses=net.buses, branches=net.branches, sources=(),
                  relays=net.relays, pairs=tuple(pairs))
    res = {"f0": {"r0": 200.0, "r1": 200.0}}
    with pytest.raises(ValueError, match="radial"):
        optimize_tds(net, pairs, res)


# --- serialization ----------------------------------------------------------


def test_csv_shape_and_formatting():
    net = chain_net(2)
    currents = {"f0": {"r0": 200.0, "r1": 150.0}}
    report = check_pairs(net, curve_times(net, currents), currents)
    text = report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].split(",")[-1] == "too_slow"
    # 4 significant digits by default
    assert "200" in lines[1] and "1" in lines[1]

    full = report_to_csv(report, full_precision=True)
    cell = full.strip().split("\n")[1].split(",")[5]
    assert float(cell) == report.rows[0].t_main_s


def test_format_number():
    assert format_number(None) == ""
    assert format_number(0.313) == "0.313"
    assert format_number(1066.1984) == "1066"
    assert format_number(2.68534353, full_precision=True) == "2.68534353"
