import gc
import json
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import feeder_net, random_tie_net
from protcoord import bundled_dataset_path, faultcalc, studio, ufcl
from protcoord.coordination import CSV_COLUMNS, CoordinationReport
from protcoord.faultcalc import (FaultSpec, LimiterStates, build_ybus,
                                 oracle_solve, solve_fault)
from protcoord.netmodel import CoordinationPair, partition_by_tie
from protcoord.studio import (SCENARIOS, Scenario, ScenarioError, StudyReport,
                              build_scenario_net, cli, default_fault_buses,
                              emit_report, run_scenario)
from protcoord.ufcl import size_ufcl


def close(a, b, rel=1e-9, floor=1.0):
    return abs(a - b) <= rel * max(floor, abs(b))


@pytest.mark.parametrize("sid", sorted(SCENARIOS))
def test_scenarios_match_recorded_study(bundled_net, expected, sid):
    report = run_scenario(bundled_net, SCENARIOS[sid])
    want = expected["scenarios"][sid]

    assert [t.fault_bus for t in report.fault_tables] == sorted(want["tables"])
    for table in report.fault_tables:
        w = want["tables"][table.fault_bus]
        assert close(table.fault_current_a, w["fault_current_a"])
        got_i = {r.relay: r.current_a for r in table.readings}
        got_t = {r.relay: r.time_s for r in table.readings}
        for rid, amps in w["relay_currents"].items():
            assert close(got_i[rid], amps), (table.fault_bus, rid)
        for rid, t in w["times"].items():
            if t is None:
                assert got_t[rid] is None, (table.fault_bus, rid)
            else:
                assert got_t[rid] == pytest.approx(t, rel=1e-9)

    got_cti = {r.fault_bus: r.cti_s for r in report.coordination.rows}
    for bus, cti in want["cti"].items():
        assert got_cti[bus] == pytest.approx(cti, rel=1e-9)

    if sid in expected["sizing"]:
        w = expected["sizing"][sid]
        assert report.sizing.r_star == w["r_star"]
        assert report.sizing.iterations == w["evaluations"]
        assert report.sizing.achieved_current_a == pytest.approx(
            w["achieved_a"], rel=1e-9)
    else:
        assert report.sizing is None


def test_default_fault_buses(bundled_net):
    assert default_fault_buses(bundled_net) == ["bus3", "bus4", "bus6",
                                                "dgbus"]
    # the declared pairs' fault buses, in file order, each once
    pairs = bundled_net.pairs
    net = bundled_net._replace(pairs=(pairs[3], pairs[0], pairs[3]))
    assert default_fault_buses(net) == ["dgbus", "bus3"]
    with pytest.raises(ValueError, match="no default fault buses"):
        default_fault_buses(bundled_net._replace(pairs=()))


def test_run_scenario_without_default_fault_buses(bundled_net, tmp_path):
    with pytest.raises(ScenarioError, match="^scenario s0_no_dg: network has "
                                            "no default fault buses"):
        run_scenario(bundled_net._replace(pairs=()), SCENARIOS["s0_no_dg"])

    doc = json.loads(bundled_dataset_path().read_text())
    del doc["pairs"]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(cli, ["run", "--network", str(path),
                                      "--scenario", "s0_no_dg"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    errors = [ln for ln in result.output.splitlines()
              if ln.startswith("error:")]
    assert errors == ["error: scenario s0_no_dg: network has no default "
                      "fault buses; list fault buses explicitly"], \
        result.output


def test_build_scenario_net_drops_and_rewrites(bundled_net):
    s0 = build_scenario_net(bundled_net, SCENARIOS["s0_no_dg"])
    assert [s.kind for s in s0.sources] == ["infinite_grid"]

    s5 = build_scenario_net(bundled_net, SCENARIOS["s5_induction_dg1"])
    kinds = {s.id: s.kind for s in s5.sources}
    assert kinds == {"grid": "infinite_grid", "dg1": "induction_dg"}
    # impedance data untouched, only the kind changes
    z = {s.id: s.internal_impedance for s in bundled_net.sources}
    assert all(s.internal_impedance == z[s.id] for s in s5.sources)


def test_build_scenario_net_rejections(bundled_net):
    with pytest.raises(ScenarioError, match="dg9"):
        build_scenario_net(bundled_net,
                           Scenario("x", frozenset({"dg9"})))
    bare = bundled_net._replace(ufcl=None)
    with pytest.raises(ScenarioError, match="UFCL"):
        build_scenario_net(bare, Scenario("x", frozenset({"dg1"}),
                                          ufcl_enabled=True))


def test_run_scenario_deterministic(bundled_net):
    a = run_scenario(bundled_net, SCENARIOS["s4_dg1_dg2_ufcl"])
    b = run_scenario(bundled_net, SCENARIOS["s4_dg1_dg2_ufcl"])
    assert a == b
    assert emit_report(a) == emit_report(b)


def test_run_scenario_grades_only_requested_buses(bundled_net):
    report = run_scenario(bundled_net,
                          SCENARIOS["s2_dg1_ufcl"]._replace(
                              fault_buses=("bus3",)))
    assert [t.fault_bus for t in report.fault_tables] == ["bus3"]
    assert [r.fault_bus for r in report.coordination.rows] == ["bus3"]
    assert report.coordination.all_ok


def _undesignated(seed):
    """A random tie network whose ufcl block names no sizing bus, and its
    upstream and downstream buses."""
    net, _ = random_tie_net(seed)
    net = net._replace(ufcl=net.ufcl._replace(sizing_fault_bus=None))
    up, down = partition_by_tie(net, "tie")
    return (net, [b for b in net.bus_ids() if b in up],
            [b for b in net.bus_ids() if b in down])


def test_run_scenario_sizes_at_first_upstream_fault_bus():
    for seed in range(100):
        net, up, down = _undesignated(seed)
        # a downstream bus leads, so the sizing bus is the second listed
        buses = (down[0], *reversed(up))
        report = run_scenario(net, Scenario("x", frozenset({"dg"}),
                                            ufcl_enabled=True,
                                            fault_buses=buses))
        bare = net._replace(sources=tuple(
            s for s in net.sources if s.kind == "infinite_grid"))
        target = solve_fault(bare, FaultSpec(up[-1])).fault_current_a
        # the target is read from the study's own solve: the bare-grid
        # level by a second exact route, so equal to round-off only
        got = report.sizing.target_current_a
        assert close(got, target, rel=1e-11, floor=0.0), seed
        assert close(got, oracle_solve(bare, FaultSpec(up[-1]))
                     .fault_current_a, floor=0.0), seed
        assert report.sizing == size_ufcl(net._replace(ufcl=net.ufcl._replace(
            sizing_fault_bus=up[-1], sizing_reference_a=got)), up[-1]), seed
        states = {t.fault_bus: t.ufcl_state_ohm for t in report.fault_tables}
        assert states == {b: 0.0 if b in down else report.sizing.r_star
                          for b in buses}, seed


@pytest.mark.parametrize("sid", ["s2_dg1_ufcl", "s4_dg1_dg2_ufcl",
                                 "s6_induction_dg1_ufcl"])
def test_downstream_faults_see_r_normal(bundled_net, sid):
    # a limiter that keeps 5 ohm in the tie for downstream faults: those
    # tables are the direct solve at 5 ohm, the upstream ones at R*
    net = bundled_net._replace(ufcl=bundled_net.ufcl._replace(r_normal=5.0))
    report = run_scenario(net, SCENARIOS[sid])
    snet = build_scenario_net(net, SCENARIOS[sid])
    down = partition_by_tie(net, net.ufcl.tie_branch)[1]
    assert {t.fault_bus for t in report.fault_tables} & down
    for t in report.fault_tables:
        want_ohm = 5.0 if t.fault_bus in down else report.sizing.r_star
        assert t.ufcl_state_ohm == want_ohm
        res = solve_fault(snet, FaultSpec(t.fault_bus), want_ohm)
        assert close(t.fault_current_a, res.fault_current_a), t.fault_bus
        for r in t.readings:
            assert close(r.current_a, res.relay_currents[r.relay]), r.relay


def count_factorisations(monkeypatch):
    """Count faultcalc's factorisations of Y; each call records Y's
    size."""
    calls = []
    factor = faultcalc._factor

    def spy(y):
        calls.append(len(y[0]))
        return factor(y)
    monkeypatch.setattr(faultcalc, "_factor", spy)
    return calls


@pytest.mark.parametrize("sid, want", [
    ("s0_no_dg", 1), ("s1_dg1", 1), ("s2_dg1_ufcl", 2),
    ("s4_dg1_dg2_ufcl", 2), ("s6_induction_dg1_ufcl", 2)])
def test_factorisations_per_study(bundled_net, monkeypatch, sid, want):
    # one for the study's limiter states, one to confirm the sized R* on
    # a copy of the network without relays
    calls = count_factorisations(monkeypatch)
    run_scenario(bundled_net, SCENARIOS[sid])
    assert len(calls) == want


def test_factorisations_per_cli_sizing(monkeypatch):
    calls = count_factorisations(monkeypatch)
    result = CliRunner().invoke(cli, ["size-ufcl", "--fault-bus", "bus3"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 2


@pytest.mark.parametrize("bus", ["bus1", "bus2"])
def test_factorisations_per_cli_sizing_off_the_recorded_bus(monkeypatch,
                                                           bus):
    # the bare-grid target comes from the sizing's own states
    calls = count_factorisations(monkeypatch)
    result = CliRunner().invoke(cli, ["size-ufcl", "--fault-bus", bus])
    assert result.exit_code == 0, result.output
    assert len(calls) == 2


def test_factorisations_per_feeder_study(monkeypatch):
    # the benchmark's 200-bus feeder: the study's limiter states, and the
    # confirm at the sized R*, which solves a copy without relays
    net = feeder_net(200, 1)
    dgs = frozenset(s.id for s in net.sources if s.kind != "infinite_grid")
    calls = count_factorisations(monkeypatch)
    run_scenario(net, Scenario("feeder", dgs, ufcl_enabled=True,
                               fault_buses=tuple(net.bus_ids())))
    assert calls == [200, 200]


@pytest.mark.parametrize("sid", ["s1_dg1", "s2_dg1_ufcl"])
def test_factorisations_per_cli_debug_csv(tmp_path, monkeypatch, sid):
    # the dump reads the voltage profiles from one factorisation more
    calls = count_factorisations(monkeypatch)
    run = ["run", "--scenario", sid]
    assert CliRunner().invoke(cli, run).exit_code == 2
    plain = len(calls)
    dump = ["--debug-csv", str(tmp_path / "dump.csv")]
    assert CliRunner().invoke(cli, [*run, *dump]).exit_code == 2
    assert len(calls) - plain == plain + 1


def test_factorisations_per_undesignated_study(monkeypatch):
    net, up, down = _undesignated(0)
    calls = count_factorisations(monkeypatch)
    run_scenario(net, Scenario("x", frozenset({"dg"}), ufcl_enabled=True,
                               fault_buses=(*down, *up)))
    assert len(calls) == 2


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name, passed through."""
    calls = []
    fn = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("sid, subs, parts", [
    ("s1_dg1", 7, 0), ("s2_dg1_ufcl", 8, 1), ("s4_dg1_dg2_ufcl", 8, 1),
    ("s6_induction_dg1_ufcl", 8, 1)])
def test_substitutions_and_partitions_per_study(bundled_net, monkeypatch,
                                                sid, subs, parts):
    # the study's states substitute the injections and the 6 relay
    # branches' columns, and a sizing the tie's column; the confirm, on a
    # copy without relays, substitutes the injections only. A limiter
    # study partitions the graph once, and size_ufcl, handed the states,
    # does not partition again
    substitutions = count_calls(monkeypatch, faultcalc, "_substitute")
    partitions = count_calls(monkeypatch, ufcl, "partition_by_tie")
    run_scenario(bundled_net, SCENARIOS[sid])
    assert (len(substitutions), len(partitions)) == (subs, parts)


def test_substitutions_and_partitions_per_feeder_study(monkeypatch):
    # the benchmark's seed-1 200-bus feeder: its relay branches' columns
    # are substituted once, for the study's states only
    net = feeder_net(200, 1)
    dgs = frozenset(s.id for s in net.sources if s.kind != "infinite_grid")
    substitutions = count_calls(monkeypatch, faultcalc, "_substitute")
    partitions = count_calls(monkeypatch, ufcl, "partition_by_tie")
    run_scenario(net, Scenario("feeder", dgs, ufcl_enabled=True,
                               fault_buses=tuple(net.bus_ids())))
    assert (len(substitutions), len(partitions)) == (15, 1)


def test_run_scenario_rejects_a_downstream_sizing_bus(bundled_net):
    # through the API, which does not validate: the study's one partition
    # finds the designated sizing bus on the downstream side
    net = bundled_net._replace(ufcl=bundled_net.ufcl._replace(
        sizing_fault_bus="bus6"))
    with pytest.raises(ScenarioError) as err:
        run_scenario(net, SCENARIOS["s2_dg1_ufcl"])
    assert str(err.value) == ("scenario s2_dg1_ufcl: fault bus 'bus6' is "
                              "downstream of the limiter; sizing needs an "
                              "upstream bus")


def test_run_scenario_names_a_pair_relay_the_network_lacks(bundled_net):
    pairs = list(bundled_net.pairs)
    pairs[0] = pairs[0]._replace(backup="relayX")
    net = bundled_net._replace(pairs=tuple(pairs))
    with pytest.raises(ScenarioError) as err:
        run_scenario(net, SCENARIOS["s1_dg1"])
    assert err.type is ScenarioError
    assert str(err.value) == ("scenario s1_dg1: pair relay2/relayX at bus3: "
                              "relay 'relayX' is not in the network")


@pytest.mark.parametrize("sid", ["s0_no_dg", "s2_dg1_ufcl"])
def test_an_unknown_tie_branch_is_named_on_every_route(bundled_net, sid):
    # through the API, which does not validate: a study with the limiter
    # out meets the tie in faultcalc, one with it in partitions the network
    # first, and both word it as partition_by_tie does, with no quotes
    # from a KeyError around it
    net = bundled_net._replace(ufcl=bundled_net.ufcl._replace(
        tie_branch="nosuch"))
    with pytest.raises(ScenarioError) as err:
        run_scenario(net, SCENARIOS[sid])
    assert str(err.value) == f"scenario {sid}: unknown tie branch 'nosuch'"
    with pytest.raises(ValueError, match="^unknown tie branch 'nosuch'$"):
        solve_fault(net, FaultSpec("bus3"))


def test_a_report_keeps_no_limiter_states_alive(bundled_net, monkeypatch):
    # a report holds numbers only: once run_scenario returns, nothing
    # refers to the states it factorised
    built = []

    def spy(net, *args):
        states = LimiterStates(net, *args)
        built.append(weakref.ref(states))
        return states
    monkeypatch.setattr(studio, "LimiterStates", spy)
    report = run_scenario(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    gc.collect()
    assert len(built) == 1
    assert built[0]() is None
    assert report.fault_tables  # the report itself is still alive


def test_a_bus_with_two_pairs_reads_each_relay_once(bundled_net):
    # a second bus3 pair, appended, whose backup is the first pair's main:
    # bus3's table reads the pairs' relays in file order, main before
    # backup and each once, then the rest in network order; the rows keep
    # file order, the new pair last
    extra = CoordinationPair("relay5", "relay2", "bus3")
    net = bundled_net._replace(pairs=(*bundled_net.pairs, extra))
    report = run_scenario(net, SCENARIOS["s1_dg1"])
    bus3 = next(t for t in report.fault_tables if t.fault_bus == "bus3")
    assert [r.relay for r in bus3.readings] == [
        "relay2", "relay1", "relay5", "relay3", "relay4", "relay6"]
    assert [(r.fault_bus, r.main, r.backup)
            for r in report.coordination.rows] == [
        ("bus3", "relay2", "relay1"), ("bus4", "relay3", "relay2"),
        ("bus6", "relay6", "relay4"), ("dgbus", "relay5", "relay4"),
        ("bus3", "relay5", "relay2")]


def test_run_scenario_needs_an_upstream_fault_bus():
    for seed in range(100):
        net, _, down = _undesignated(seed)
        with pytest.raises(ScenarioError, match="no upstream fault bus"):
            run_scenario(net, Scenario("x", frozenset({"dg"}),
                                       ufcl_enabled=True,
                                       fault_buses=tuple(down)))


def test_md_report_structure(bundled_net):
    report = run_scenario(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    text = emit_report(report)
    assert text.startswith("# Scenario s2_dg1_ufcl\n")
    assert "UFCL sized to 200 ohm" in text
    for bus in ("bus3", "bus4", "bus6", "dgbus"):
        assert f"## Fault at {bus}" in text
    assert "## Coordination" in text

    sections = text.split("## Fault at ")
    bus3 = next(s for s in sections if s.startswith("bus3"))
    assert "200 ohm limiter in circuit" in bus3
    rows = [ln for ln in bus3.splitlines() if ln.startswith("| relay")]
    # main of the bus3 pair leads its table, then its backup
    assert rows[0].startswith("| relay |")
    body = [ln.split("|")[1].strip() for ln in bus3.splitlines()
            if ln.startswith("| relay") and "current_a" not in ln]
    assert body[:2] == ["relay2", "relay1"]

    downstream = next(s for s in sections if s.startswith("bus6"))
    assert "limiter in circuit" not in downstream


def test_md_and_csv_agree_on_numbers(bundled_net):
    report = run_scenario(bundled_net, SCENARIOS["s1_dg1"])
    md = emit_report(report, "md")
    csv = emit_report(report, "csv")
    csv_rows = [ln.split(",") for ln in csv.strip().splitlines()[1:]]
    for row in csv_rows:
        md_line = next(ln for ln in md.splitlines()
                       if ln.startswith(f"| {row[0]} | {row[1]} |"))
        cells = [c.strip() for c in md_line.strip("|").split("|")]
        assert cells == row


@pytest.mark.parametrize("sid", ["s0_no_dg", "s1_dg1", "s2_dg1_ufcl",
                                 "s3_dg1_dg2", "s5_induction_dg1",
                                 "s6_induction_dg1_ufcl"])
def test_round_off_relay_current_reads_zero(bundled_net, sid):
    # relay3 sits on b34, which carries no current for a bolted bus3
    # fault: the solution's round-off is reported as exactly 0
    snet = build_scenario_net(bundled_net, SCENARIOS[sid])
    report = run_scenario(bundled_net, SCENARIOS[sid])
    bus3 = next(t for t in report.fault_tables if t.fault_bus == "bus3")
    res = solve_fault(snet, FaultSpec("bus3"),
                      ufcl_state_ohm=bus3.ufcl_state_ohm)
    assert res.relay_currents["relay3"] == 0.0
    assert {r.relay: r.current_a for r in bus3.readings}["relay3"] == 0.0
    assert "| relay3 | 0 |  |" in emit_report(report)
    assert "| relay3 | 0.0 |  |" in emit_report(report, full_precision=True)


def test_emit_report_empty_tables():
    report = StudyReport("empty", (), CoordinationReport(()))
    md = emit_report(report)
    assert "## Fault at" not in md
    assert md.splitlines()[0] == "# Scenario empty"
    csv = emit_report(report, "csv")
    assert csv.strip() == ",".join(CSV_COLUMNS)


def test_emit_report_rejects_unknown_format(bundled_net):
    report = run_scenario(bundled_net, SCENARIOS["s0_no_dg"])
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


# --- command line -----------------------------------------------------------


def test_cli_run_bundled_default_grid():
    result = CliRunner().invoke(cli, ["run", "--scenario", "s0_no_dg"])
    # the DG-bus pair misoperates by design, so the study exits 2
    assert result.exit_code == 2
    assert result.output.startswith("# Scenario s0_no_dg")
    assert "backup_first" in result.output


def test_cli_run_single_clean_bus():
    result = CliRunner().invoke(
        cli, ["run", "--scenario", "s2_dg1_ufcl", "--fault-bus", "bus3"])
    assert result.exit_code == 0
    assert "| ok |" in result.output


def test_cli_run_csv_and_out(tmp_path):
    out = tmp_path / "rep.csv"
    result = CliRunner().invoke(
        cli, ["run", "--scenario", "s1_dg1", "--format", "csv",
              "--out", str(out)])
    assert result.exit_code == 2
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(text.strip().splitlines()) == 5


def test_cli_run_debug_csv(tmp_path):
    dump = tmp_path / "dump.csv"
    result = CliRunner().invoke(
        cli, ["run", "--scenario", "s0_no_dg", "--fault-bus", "bus3",
              "--debug-csv", str(dump)])
    assert result.exit_code in (0, 2)
    lines = dump.read_text().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) > 10


def test_cli_run_debug_csv_values(tmp_path, bundled_net):
    dump = tmp_path / "dump.csv"
    result = CliRunner().invoke(
        cli, ["run", "--scenario", "s2_dg1_ufcl", "--debug-csv", str(dump)])
    assert result.exit_code in (0, 2)
    lines = dump.read_text().splitlines()
    assert lines[0] == "row,col,re,im"
    rows = [tuple(float(cell) for cell in ln.split(",")) for ln in lines[1:]]

    snet = build_scenario_net(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    ybus = np.array(build_ybus(snet)[0])
    matrix = {(int(i), int(j)): complex(re, im)
              for i, j, re, im in rows if j >= 0}
    assert matrix == {(i, j): ybus[i, j] for i in range(len(ybus))
                      for j in range(len(ybus)) if ybus[i, j] != 0}

    report = run_scenario(bundled_net, SCENARIOS["s2_dg1_ufcl"])
    states = [(t.fault_bus, t.ufcl_state_ohm) for t in report.fault_tables]
    assert states == [("bus3", 200.0), ("bus4", 200.0), ("bus6", 0.0),
                      ("dgbus", 0.0)]
    for k, (bus, r_ohm) in enumerate(states, start=1):
        got = {int(i): complex(re, im)
               for i, j, re, im in rows if j == -k}
        want = oracle_solve(snet, FaultSpec(bus),
                            ufcl_state_ohm=r_ohm).bus_voltages_pu
        assert sorted(got) == list(range(len(snet.buses)))
        for i, b in enumerate(snet.buses):
            assert abs(got[i] - want[i]) <= 1e-9, (bus, b.id)
    assert len(rows) == len(matrix) + len(states) * len(snet.buses)


def spy_run_scenario(monkeypatch):
    """The reports of every run_scenario call, in call order."""
    reports = []
    run = studio.run_scenario

    def spy(net, scenario):
        reports.append(run(net, scenario))
        return reports[-1]
    monkeypatch.setattr(studio, "run_scenario", spy)
    return reports


@pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug_csv"])
def test_cli_run_runs_one_study(tmp_path, monkeypatch, debug):
    reports = spy_run_scenario(monkeypatch)
    dump = ["--debug-csv", str(tmp_path / "dump.csv")] if debug else []
    result = CliRunner().invoke(cli, ["run", "--scenario", "s2_dg1_ufcl",
                                      *dump])
    assert result.exit_code == 2, result.output
    assert len(reports) == 1
    assert result.output == emit_report(reports[0])


def test_cli_run_debug_csv_prints_the_reports_voltages(tmp_path,
                                                       monkeypatch,
                                                       bundled_net):
    # each table's profile, at the table's limiter resistance, bit for bit
    # as limiter states of the scenario network read it
    reports = spy_run_scenario(monkeypatch)
    dump = tmp_path / "dump.csv"
    buses = [arg for bus in ("bus1", "bus3", "bus6", "dgbus")
             for arg in ("--fault-bus", bus)]
    result = CliRunner().invoke(cli, ["run", "--scenario", "s4_dg1_dg2_ufcl",
                                      *buses, "--debug-csv", str(dump)])
    assert result.exit_code in (0, 2), result.output
    rows = [ln.split(",") for ln in dump.read_text().splitlines()[1:]]
    snet = build_scenario_net(bundled_net, SCENARIOS["s4_dg1_dg2_ufcl"])
    tables = reports[0].fault_tables
    assert {t.ufcl_state_ohm for t in tables} == {0.0,
                                                 reports[0].sizing.r_star}
    for k, table in enumerate(tables, start=1):
        got = [complex(float(re), float(im))
               for _, j, re, im in rows if int(j) == -k]
        assert got == LimiterStates(snet).profile(
            table.fault_bus, table.ufcl_state_ohm), table.fault_bus
    assert sum(int(j) < 0 for _, j, _, _ in rows) == \
        len(tables) * len(snet.buses)


def test_cli_check_reproduces_verdicts(tmp_path, bundled_net):
    times = tmp_path / "times.csv"
    times.write_text(
        "fault_bus,relay,t_s\n"
        "bus3,relay2,0.39\nbus3,relay1,1.09\n"
        "bus4,relay3,0.21\nbus4,relay2,0.49\n"
        "bus6,relay6,0.029\nbus6,relay4,0.342\n"
        "dgbus,relay5,0.4521\ndgbus,relay4,0.083\n")
    result = CliRunner().invoke(cli, ["check", "--times", str(times)])
    assert result.exit_code == 2
    verdicts = [ln.strip("|").split("|")[-1].strip()
                for ln in result.output.splitlines()
                if ln.startswith("|") and "verdict" not in ln
                and "---" not in ln]
    assert verdicts == ["too_slow", "too_fast", "ok", "backup_first"]


def test_cli_check_accepts_no_trip(tmp_path):
    times = tmp_path / "times.csv"
    times.write_text("fault_bus,relay,t_s\n"
                     "bus3,relay2,0.39\nbus3,relay1,no_trip\n"
                     "bus4,relay3,0.21\nbus4,relay2,0.49\n"
                     "bus6,relay6,0.029\nbus6,relay4,0.342\n"
                     "dgbus,relay5,0.4521\ndgbus,relay4,\n")
    result = CliRunner().invoke(cli, ["check", "--times", str(times)])
    assert result.exit_code == 2
    assert "no_trip" in result.output


def test_cli_size_ufcl():
    result = CliRunner().invoke(cli, ["size-ufcl", "--fault-bus", "bus3"])
    assert result.exit_code == 0
    lines = dict(ln.split(" = ") for ln in result.output.strip().splitlines())
    assert lines["r_star_ohm"] == "200.0"
    assert lines["iterations"] == "10"
    assert float(lines["achieved_a"]) == pytest.approx(980.70, abs=0.01)


def test_cli_size_ufcl_away_from_sizing_bus(bundled_net):
    # the recorded 981.81 A belongs to bus3; bus2 sizes against its own
    # bare-grid level
    result = CliRunner().invoke(cli, ["size-ufcl", "--fault-bus", "bus2"])
    assert result.exit_code == 0, result.output
    lines = dict(ln.split(" = ") for ln in result.output.strip().splitlines())
    assert lines["r_star_ohm"] == "1280.0"
    assert lines["iterations"] == "9"
    bare = bundled_net._replace(sources=tuple(
        s for s in bundled_net.sources if s.kind == "infinite_grid"))
    # read from the sizing's own solve, so equal to round-off only
    target = float(lines["target_a"])
    assert close(target, solve_fault(bare, FaultSpec("bus2")).fault_current_a,
                 rel=1e-11, floor=0.0)
    assert close(target, oracle_solve(bare, FaultSpec("bus2")).fault_current_a,
                 floor=0.0)


def test_cli_size_ufcl_needs_a_limiter(tmp_path):
    doc = json.loads(bundled_dataset_path().read_text())
    del doc["ufcl"]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(cli, ["size-ufcl", "--network", str(path),
                                      "--fault-bus", "bus3"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("error: no tie branch to carry the limiter "
                             "resistance\n")


@pytest.mark.parametrize("args", [
    ["run", "--scenario", "s0_no_dg", "--network", ""],
    ["validate", "--network", ""],
    ["size-ufcl", "--fault-bus", "bus3", "--network", ""],
    ["check", "--times", "times.csv", "--network", ""],
    ["run", "--scenario", "s0_no_dg", "--out", ""],
    ["run", "--scenario", "s0_no_dg", "--debug-csv", ""],
    ["check", "--times", ""],
], ids=["run_network", "validate_network", "size_ufcl_network",
        "check_network", "run_out", "run_debug_csv", "check_times"])
def test_cli_an_empty_path_is_an_error(tmp_path, monkeypatch, args):
    # an empty path is given, not absent: it names no file, so neither the
    # bundled grid nor stdout stands in for it, and the one error line
    # names the option, not the working directory it would resolve to
    monkeypatch.chdir(tmp_path)
    (tmp_path / "times.csv").write_text(STUDY_TIMES)
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == f"error: {args[-2]}: empty path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["times.csv"]


def test_cli_validate_ok():
    result = CliRunner().invoke(cli, ["validate"])
    assert result.exit_code == 0
    assert result.output.startswith("ok: 7 buses")


def test_cli_bad_network_file_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    result = CliRunner().invoke(cli, ["validate", "--network", str(bad)])
    assert result.exit_code == 1

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"buses": [], "branches": [],
                                   "sources": []}))
    result = CliRunner().invoke(cli, ["run", "--network", str(missing),
                                      "--scenario", "s0_no_dg"])
    assert result.exit_code == 1


def _edited_grid(*path, value):
    """The bundled grid document with the field at path set to value."""
    def make():
        doc = json.loads(bundled_dataset_path().read_text())
        *parents, name = path
        target = doc
        for key in parents:
            target = target[key]
        target[name] = value
        return doc
    return make


def _isolated_grid():
    """The bundled grid with a bus that no branch reaches."""
    doc = json.loads(bundled_dataset_path().read_text())
    doc["buses"].append({"id": "bus9", "nominal_voltage": 20000.0})
    return doc


def _looped_grid():
    """The bundled grid with a bus1-bus6 line closing a loop over the tie."""
    doc = json.loads(bundled_dataset_path().read_text())
    doc["branches"].append({"id": "b16", "from_bus": "bus1", "to_bus": "bus6",
                            "impedance": {"r": 5.0, "x": 2.0}})
    return doc


@pytest.mark.parametrize("make_doc, shown", [
    (lambda: {"buses": [3]}, "buses[0]: must be an object"),
    (_edited_grid("buses", 0, "nominal_voltage", value="x"),
     "buses[0]: nominal_voltage"),
    (_edited_grid("loads", 0, "impedance", value={"r": 0, "x": 0}),
     "zero load impedance"),
    (_edited_grid("s_base_va", value=0), "s_base_va > 0"),
    (_edited_grid("s_base_va", value=-1e6), "s_base_va > 0"),
    (_edited_grid("relays", 0, "pickup_a", value="inf"),
     "relays[0]: pickup_a"),
    (_edited_grid("loads", 0, "impedance", value={"r": "nan", "x": 1}),
     "loads[0]: r"),
    (_edited_grid("branches", 0, "impedance", value={"r": "inf", "x": 0}),
     "branches[0]: r"),
    (_edited_grid("branches", 0, "impedance", value={"r": 1e-12, "x": 1e-12}),
     "b12: |z_pu| >= 1e-6"),
    (_edited_grid("s_base_va", value=1e-300), "network: per-unit bases"),
    (_edited_grid("buses", 2, "nominal_voltage", value=400.0),
     "inconsistent voltage zones across branch 'b23'"),
    (_looped_grid, "tie: tie splits the network in two"),
    (_edited_grid("ufcl", "sizing_fault_bus", value="bus6"),
     "bus6: sizing_fault_bus on the grid side"),
    (_edited_grid("ufcl", "sizing_reference_a", value=-5),
     "ufcl: sizing_reference_a > 0"),
    (_edited_grid("ufcl", "sizing_fault_bus", value=None),
     "ufcl: sizing_reference_a needs sizing_fault_bus"),
    # raw file bytes rather than a document
    (lambda: '{"buses": [{"id": "b\u00e9"}]}'.encode("latin-1"),
     "can't decode byte 0xe9"),
    (lambda: b"[" * 100_000, "document nested too deeply"),
    (lambda: [], "document root must be an object"),
    (lambda: {"buses": {}}, "buses: must be an array"),
    (_edited_grid("relays", 0, "curve", value=5),
     "relays[0]: curve must be a family name or an a/b/c object"),
    (_edited_grid("relays", 0, "curve", value={"a": 0, "b": 0, "c": 0.02}),
     "relay1: a > 0 (curve a = 0"),
    (_isolated_grid, "bus9: graph connected (bus unreachable"),
], ids=["record_not_object", "text_number", "zero_load", "zero_s_base",
        "negative_s_base", "inf_pickup", "nan_load", "inf_branch",
        "tiny_branch", "tiny_s_base", "line_across_zones", "tie_in_loop",
        "downstream_sizing_bus", "negative_sizing_reference",
        "reference_without_bus", "not_utf8", "deeply_nested",
        "root_not_object", "records_not_array", "curve_number",
        "curve_a_zero", "isolated_bus"])
@pytest.mark.parametrize("command", [["validate"],
                                     ["run", "--scenario", "s1_dg1"]],
                         ids=["validate", "run"])
def test_cli_bad_network_is_one_error_line(tmp_path, make_doc, shown,
                                           command):
    path = tmp_path / "net.json"
    doc = make_doc()
    path.write_bytes(doc if isinstance(doc, bytes)
                     else json.dumps(doc).encode())
    result = CliRunner().invoke(cli, [*command, "--network", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [ln for ln in result.output.splitlines()
              if ln.startswith("error:")]
    assert len(errors) == 1, result.output
    assert shown in result.output


def test_cli_sizing_failure_names_the_scenario(tmp_path):
    # 500 A lies below the 955.51 A that bus3 sees with the tie open
    path = tmp_path / "net.json"
    path.write_text(json.dumps(
        _edited_grid("ufcl", "sizing_reference_a", value=500.0)()))
    result = CliRunner().invoke(cli, ["run", "--network", str(path),
                                      "--scenario", "s2_dg1_ufcl"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [ln for ln in result.output.splitlines()
              if ln.startswith("error:")]
    assert len(errors) == 1, result.output
    assert errors[0].startswith("error: scenario s2_dg1_ufcl: current with "
                                "the tie open"), errors


def test_cli_check_rejects_short_row(tmp_path):
    times = tmp_path / "times.csv"
    times.write_text("fault_bus,relay,t_s\nbus3,relay2,0.39\nbus3\n")
    result = CliRunner().invoke(cli, ["check", "--times", str(times)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    errors = [ln for ln in result.output.splitlines()
              if ln.startswith("error:")]
    assert errors == ["error: times csv line 3: fewer fields than the "
                      "header"], result.output


@pytest.mark.parametrize("t_s", ["nan", "inf", "-inf", "-0.49", "abc"])
def test_cli_check_rejects_bad_time(tmp_path, t_s):
    times = tmp_path / "times.csv"
    times.write_text("fault_bus,relay,t_s\n"
                     f"bus3,relay2,0.39\nbus3,relay1,{t_s}\n"
                     "bus4,relay3,0.21\nbus4,relay2,0.49\n"
                     "bus6,relay6,0.029\nbus6,relay4,0.342\n"
                     "dgbus,relay5,0.4521\ndgbus,relay4,0.083\n")
    result = CliRunner().invoke(cli, ["check", "--times", str(times)])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    errors = [ln for ln in result.output.splitlines()
              if ln.startswith("error:")]
    assert errors == [f"error: times csv line 3: t_s must be a finite "
                      f"number >= 0, not {t_s!r}"], result.output


STUDY_TIMES = ("fault_bus,relay,t_s\n"
               "bus3,relay2,0.39\nbus3,relay1,1.09\n"
               "bus4,relay3,0.21\nbus4,relay2,0.49\n"
               "bus6,relay6,0.029\nbus6,relay4,0.342\n"
               "dgbus,relay5,0.4521\ndgbus,relay4,0.083\n")


@pytest.mark.parametrize("full", [[], ["--full-precision"]],
                         ids=["rounded", "full_precision"])
@pytest.mark.parametrize("t_s", ["-0", "-0.0"])
def test_cli_check_reads_negative_zero_as_zero(tmp_path, t_s, full):
    # -0 passes the >= 0 rule; the report shows it as 0, not -0
    zero, signed = tmp_path / "zero.csv", tmp_path / "signed.csv"
    zero.write_text(STUDY_TIMES.replace("relay5,0.4521", "relay5,0"))
    signed.write_text(STUDY_TIMES.replace("relay5,0.4521", f"relay5,{t_s}"))
    want = CliRunner().invoke(cli, ["check", "--times", str(zero), *full])
    got = CliRunner().invoke(cli, ["check", "--times", str(signed), *full])
    assert got.exit_code == want.exit_code == 2, got.output
    assert got.output == want.output


@pytest.mark.parametrize("extra, shown", [
    ("bus3,relay1,0.5\n",
     "times csv line 10: bus3 relay1 is already on line 3"),
    ("bus9,relay1,0.1\n",
     "times csv line 10: fault bus 'bus9' is not in the network"),
    ("bus3,relayX,0.1\n",
     "times csv line 10: relay 'relayX' is not in the network"),
], ids=["duplicate", "unknown_bus", "unknown_relay"])
def test_cli_check_rejects_row(tmp_path, extra, shown):
    times = tmp_path / "times.csv"
    times.write_text(STUDY_TIMES + extra)
    result = CliRunner().invoke(cli, ["check", "--times", str(times)])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    errors = [ln for ln in result.output.splitlines()
              if ln.startswith("error:")]
    assert errors == [f"error: {shown}"], result.output


def test_cli_check_accepts_rows_no_pair_grades(tmp_path):
    # a relay test set may time relays and buses the pairs do not name
    plain, extra = tmp_path / "plain.csv", tmp_path / "extra.csv"
    plain.write_text(STUDY_TIMES)
    extra.write_text(STUDY_TIMES + "bus3,relay6,0.5\nbus1,relay1,0.2\n")
    want = CliRunner().invoke(cli, ["check", "--times", str(plain)])
    got = CliRunner().invoke(cli, ["check", "--times", str(extra)])
    assert got.exit_code == want.exit_code == 2, got.output
    assert got.output == want.output


def test_cli_check_reads_times_with_bom(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a byte order mark
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    text = ("fault_bus,relay,t_s\n"
            "bus3,relay2,0.39\nbus3,relay1,1.09\n"
            "bus4,relay3,0.21\nbus4,relay2,0.49\n"
            "bus6,relay6,0.029\nbus6,relay4,0.342\n"
            "dgbus,relay5,0.4521\ndgbus,relay4,0.083\n")
    plain.write_bytes(text.encode())
    marked.write_bytes(text.encode("utf-8-sig"))
    want = CliRunner().invoke(cli, ["check", "--times", str(plain)])
    got = CliRunner().invoke(cli, ["check", "--times", str(marked)])
    assert got.exit_code == want.exit_code == 2, got.output
    assert got.output == want.output


@pytest.mark.parametrize("command", [["validate"],
                                     ["run", "--scenario", "s2_dg1_ufcl"]],
                         ids=["validate", "run"])
def test_cli_reads_network_with_bom(tmp_path, command):
    path = tmp_path / "net.json"
    path.write_bytes(b"\xef\xbb\xbf" + bundled_dataset_path().read_bytes())
    want = CliRunner().invoke(cli, command)
    got = CliRunner().invoke(cli, [*command, "--network", str(path)])
    assert got.exit_code == want.exit_code, got.output
    assert got.output == want.output


@pytest.mark.parametrize("args", [
    ["run", "--scenario", "s0_no_dg", "--fault-bus", "nosuch"],
    ["run", "--scenario", "s2_dg1_ufcl", "--fault-bus", "nosuch"],
    ["size-ufcl", "--fault-bus", "nosuch"],
], ids=["run", "run_with_limiter", "size_ufcl"])
def test_cli_unknown_fault_bus_is_one_error_line(args):
    # the limiter states name a bus the network lacks when it is read
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stdout == ""
    errors = [ln for ln in result.stderr.splitlines()
              if ln.startswith("error:")]
    assert len(errors) == 1, result.stderr
    assert "unknown fault bus 'nosuch'" in errors[0], result.stderr


@pytest.mark.parametrize("args", [
    ["--no-such-flag"],
    ["run", "--scenario", "s0_no_dg", "--no-such-flag"],
    ["nope"],
    [],
    ["run", "--scenario", "nope"],
    ["run", "--scenario", "s0_no_dg", "--format", "xml"],
    ["run"],
    ["size-ufcl"],
    ["check"],
    ["run", "--scen", "s0_no_dg"],
], ids=["unknown_flag", "unknown_command_flag", "unknown_command",
        "no_command", "bad_scenario", "bad_format", "no_scenario",
        "no_fault_bus", "no_times", "abbreviated_option"])
def test_cli_usage_errors_exit_one(args):
    # exit 2 is a verdict, so a command line mistake exits 1; an
    # abbreviated option is a mistake, not the option it starts
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stdout == ""
    errors = [ln for ln in result.stderr.splitlines()
              if ln.startswith("error:")]
    assert len(errors) == 1, result.stderr
    assert result.stderr.startswith("usage: protcoord")
    assert result.stderr.endswith(errors[0] + "\n")


@pytest.mark.parametrize("args, named", [
    (["run", "--scen", "s0_no_dg"], "--scen"),
    (["--no-such-flag"], "--no-such-flag"),
    (["run", "--format=csv", "--scenaro=s0_no_dg"], "--scenaro=s0_no_dg"),
], ids=["abbreviated_option", "unknown_flag", "misspelt_option"])
def test_cli_names_the_unknown_option_before_a_missing_one(args, named):
    # argparse checks required arguments first: a mistyped --scenario
    # would be reported as missing, which hides the word to fix
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 1, result.output
    errors = [ln for ln in result.stderr.splitlines()
              if ln.startswith("error:")]
    assert errors == [f"error: unrecognized arguments: {named}"]


@pytest.mark.parametrize("args, shown", [
    (["--help"], "Load a network file and report every invariant violation."),
    (["run", "--help"], "Override the scenario fault buses (repeatable)."),
], ids=["top", "run"])
def test_cli_help_exits_zero(args, shown):
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0
    assert result.stdout.startswith("usage: protcoord")
    assert shown in result.stdout
    assert result.stderr == ""


def test_cli_main_never_freezes_the_heap(monkeypatch):
    # only the process entry, cli(), freezes: tests and the bench call
    # cli.main in a process that goes on running
    frozen = []
    monkeypatch.setattr(studio.gc, "freeze", lambda: frozen.append(1))
    result = CliRunner().invoke(cli, ["validate"])
    assert result.exit_code == 0
    assert frozen == []


def test_cli_full_precision_changes_formatting():
    short = CliRunner().invoke(
        cli, ["run", "--scenario", "s0_no_dg", "--format", "csv"])
    long = CliRunner().invoke(
        cli, ["run", "--scenario", "s0_no_dg", "--format", "csv",
              "--full-precision"])
    assert short.output != long.output
    cell = long.output.strip().splitlines()[1].split(",")[7]
    assert len(cell) > 8  # repr of the raw float
