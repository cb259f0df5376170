import json
from dataclasses import replace

import pytest
from click.testing import CliRunner

from conftest import random_tie_net
from protcoord import bundled_dataset_path
from protcoord.coordination import CSV_COLUMNS, CoordinationReport
from protcoord.faultcalc import (FaultSpec, build_ybus, oracle_solve,
                                 solve_fault)
from protcoord.netmodel import partition_by_tie, to_per_unit
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
    net = replace(bundled_net, pairs=(pairs[3], pairs[0], pairs[3]))
    assert default_fault_buses(net) == ["dgbus", "bus3"]
    with pytest.raises(ValueError, match="no default fault buses"):
        default_fault_buses(replace(bundled_net, pairs=()))


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
    bare = replace(bundled_net, ufcl=None)
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
                          replace(SCENARIOS["s2_dg1_ufcl"],
                                  fault_buses=("bus3",)))
    assert [t.fault_bus for t in report.fault_tables] == ["bus3"]
    assert [r.fault_bus for r in report.coordination.rows] == ["bus3"]
    assert report.coordination.all_ok


def _undesignated(seed):
    """A random tie network whose ufcl block names no sizing bus, and its
    upstream and downstream buses."""
    net, _ = random_tie_net(seed)
    net = replace(net, ufcl=replace(net.ufcl, sizing_fault_bus=None))
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
        bare = replace(net, sources=tuple(
            s for s in net.sources if s.kind == "infinite_grid"))
        target = solve_fault(bare, FaultSpec(up[-1])).fault_current_a
        assert report.sizing == size_ufcl(net, up[-1], target), seed
        states = {t.fault_bus: t.ufcl_state_ohm for t in report.fault_tables}
        assert states == {b: 0.0 if b in down else report.sizing.r_star
                          for b in buses}, seed


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
    ybus, _ = build_ybus(to_per_unit(snet))
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
            assert abs(got[i] - want[b.id]) <= 1e-9, (bus, b.id)
    assert len(rows) == len(matrix) + len(states) * len(snet.buses)


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
    bare = replace(bundled_net, sources=tuple(
        s for s in bundled_net.sources if s.kind == "infinite_grid"))
    assert float(lines["target_a"]) == solve_fault(
        bare, FaultSpec("bus2")).fault_current_a


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
    (_edited_grid("ufcl", "downstream_end", value="bus2"),
     "bus2: downstream_end away from the grid"),
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
], ids=["record_not_object", "text_number", "zero_load", "zero_s_base",
        "negative_s_base", "inf_pickup", "nan_load", "inf_branch",
        "tiny_branch", "tiny_s_base", "line_across_zones",
        "grid_side_downstream_end", "tie_in_loop", "downstream_sizing_bus",
        "negative_sizing_reference", "reference_without_bus", "not_utf8",
        "deeply_nested"])
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


def test_cli_usage_errors_exit_one():
    result = CliRunner().invoke(cli, ["run", "--scenario", "nope"])
    assert result.exit_code == 1
    result = CliRunner().invoke(cli, ["--no-such-flag"])
    assert result.exit_code == 1


def test_cli_full_precision_changes_formatting():
    short = CliRunner().invoke(
        cli, ["run", "--scenario", "s0_no_dg", "--format", "csv"])
    long = CliRunner().invoke(
        cli, ["run", "--scenario", "s0_no_dg", "--format", "csv",
              "--full-precision"])
    assert short.output != long.output
    cell = long.output.strip().splitlines()[1].split(",")[7]
    assert len(cell) > 8  # repr of the raw float
