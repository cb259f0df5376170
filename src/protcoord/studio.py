"""Scenario runner and command line front end.

A scenario selects which DG units are in service, whether the tie-line
limiter is active, and which buses get a three-phase fault. The
seven canned scenarios (s0_no_dg through s6_induction_dg1_ufcl) mirror the
bundled 20 kV study grid: grid only, one synchronous DG, the same plus the
limiter, two DGs, two DGs plus limiter, and the induction-machine variants
of the single-DG pair.

For *_ufcl scenarios the limiter is sized first and the sized resistance
is what upstream faults then see; downstream faults see r_normal. Sizing
runs at the designated sizing bus, else at the first upstream fault bus;
size_ufcl works out its target there (the recorded pre-DG level at the
designated bus, the bare-grid level at any other). One factorisation of
the scenario network (faultcalc.LimiterStates, built over the fault bus
ids and the sizing bus, to which it adds by itself the DG buses the
bare-grid level needs) reads the sizing map, the bare-grid target and
every fault table, each group of buses at the resistance it sees. The
sizing adds one solve of its own, to confirm R*.
One pass over the declared pairs picks the graded ones, those at the
fault buses, in file order, and checks that each names relays the
network has. A fault table reads the relays of its bus's pairs first,
main before backup and each once, then the others in network order.

Exit codes: 0 all pairs coordinate, 2 coordination violations, 1 error.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import click

from . import bundled_dataset_path
from .coordination import (CSV_COLUMNS, CoordinationReport, check_pairs,
                           format_number, report_to_csv, row_cells)
from .faultcalc import LimiterStates, build_ybus
from .netmodel import Network, load_network, validate
from .relaycurve import operate_time
from .ufcl import SizingResult, downstream_buses, size_ufcl

__all__ = [
    "Scenario", "SCENARIOS", "RelayReading", "FaultTable", "StudyReport",
    "ScenarioError", "default_fault_buses", "build_scenario_net",
    "run_scenario", "emit_report", "cli",
]


class ScenarioError(RuntimeError):
    """A scenario could not be run against the given network."""


@dataclass(frozen=True)
class Scenario:
    id: str
    dg_in_service: frozenset[str] = frozenset()
    ufcl_enabled: bool = False
    fault_buses: tuple[str, ...] | None = None  # None: study defaults
    induction: frozenset[str] = frozenset()  # DGs modeled as induction


SCENARIOS = {
    "s0_no_dg": Scenario("s0_no_dg"),
    "s1_dg1": Scenario("s1_dg1", frozenset({"dg1"})),
    "s2_dg1_ufcl": Scenario("s2_dg1_ufcl", frozenset({"dg1"}),
                            ufcl_enabled=True),
    "s3_dg1_dg2": Scenario("s3_dg1_dg2", frozenset({"dg1", "dg2"})),
    "s4_dg1_dg2_ufcl": Scenario("s4_dg1_dg2_ufcl", frozenset({"dg1", "dg2"}),
                                ufcl_enabled=True),
    "s5_induction_dg1": Scenario("s5_induction_dg1", frozenset({"dg1"}),
                                 induction=frozenset({"dg1"})),
    "s6_induction_dg1_ufcl": Scenario("s6_induction_dg1_ufcl",
                                      frozenset({"dg1"}), ufcl_enabled=True,
                                      induction=frozenset({"dg1"})),
}


@dataclass(frozen=True)
class RelayReading:
    relay: str
    current_a: float
    time_s: float | None


@dataclass(frozen=True)
class FaultTable:
    """One fault's readings. bus_voltages_pu is the solve's post-fault
    profile in per-unit, in net.buses order, made by profile on its first
    read: what `run --debug-csv` prints."""

    fault_bus: str
    fault_current_a: float
    ufcl_state_ohm: float
    readings: tuple[RelayReading, ...]
    profile: Callable[[], list[complex]] = field(compare=False, repr=False)

    @cached_property
    def bus_voltages_pu(self) -> list[complex]:
        return self.profile()


@dataclass(frozen=True)
class StudyReport:
    scenario_id: str
    fault_tables: tuple[FaultTable, ...]
    coordination: CoordinationReport
    sizing: SizingResult | None = None


def default_fault_buses(net: Network) -> list[str]:
    """Study default: the fault bus of each declared pair, in file order."""
    out = list(dict.fromkeys(p.fault_bus for p in net.pairs))
    if not out:
        raise ValueError("network has no default fault buses; "
                         "list fault buses explicitly")
    return out


def build_scenario_net(net: Network, scenario: Scenario) -> Network:
    """Network with only the scenario's sources, induction kinds applied."""
    known = {s.id for s in net.sources}
    missing = (scenario.dg_in_service | scenario.induction) - known
    if missing:
        raise ScenarioError(f"scenario {scenario.id}: unknown source ids "
                            f"{sorted(missing)}")
    if scenario.ufcl_enabled and net.ufcl is None:
        raise ScenarioError(f"scenario {scenario.id}: network declares "
                            f"no UFCL")
    kept = []
    for s in net.sources:
        if s.kind != "infinite_grid":
            if s.id not in scenario.dg_in_service:
                continue
            if s.id in scenario.induction:
                s = replace(s, kind="induction_dg")
        kept.append(s)
    return replace(net, sources=tuple(kept))


def run_scenario(net: Network, scenario: Scenario) -> StudyReport:
    """Solve every configured fault and grade the declared pairs."""
    snet = build_scenario_net(net, scenario)
    try:
        buses = list(dict.fromkeys(scenario.fault_buses
                                   or default_fault_buses(net)))
        relays = {r.id: r for r in snet.relays}
        # one pass over the pairs: those at the fault buses are graded, and
        # each bus's table reads their relays first, main before backup
        graded, pair_relays = [], {bus: [] for bus in buses}
        for p in snet.pairs:
            if p.fault_bus in pair_relays:
                for rid in (p.main, p.backup):
                    if rid not in relays:
                        raise ValueError(f"pair {p.main}/{p.backup} at "
                                         f"{p.fault_bus}: relay {rid!r} is "
                                         f"not in the network")
                graded.append(p)
                pair_relays[p.fault_bus] += (p.main, p.backup)

        # one factorisation reads the sizing and every fault table
        sizing, ohms = None, dict.fromkeys(buses, 0.0)
        if scenario.ufcl_enabled:
            down = downstream_buses(snet)
            sizing_bus = snet.ufcl.sizing_fault_bus
            if sizing_bus is None:
                upstream = [b for b in buses if b not in down]
                if not upstream:
                    raise ValueError("no upstream fault bus to size the "
                                     "limiter against")
                sizing_bus = upstream[0]
            states = LimiterStates(snet, [*buses, sizing_bus])
            sizing = size_ufcl(snet, sizing_bus, states=states)
            ohms = {bus: snet.ufcl.r_normal if bus in down else sizing.r_star
                    for bus in buses}
        else:
            states = LimiterStates(snet, buses)
        # fault buses grouped by limiter ohms: one read of the states each
        groups: dict[float, list[str]] = {}
        for bus, r_ohm in ohms.items():
            groups.setdefault(r_ohm, []).append(bus)
        results = {res.fault_bus: res for r_ohm, group in groups.items()
                   for res in states.solve(group, r_ohm)}

        # one operate-time evaluation per relay and fault: the tables print
        # it and the pairs are graded from it
        tables, times = [], {}
        for bus in buses:
            amps = results[bus].relay_currents
            times[bus] = {rid: operate_time(relays[rid], amps[rid]) for rid
                          in dict.fromkeys([*pair_relays[bus], *relays])}
            readings = tuple(RelayReading(rid, amps[rid], t)
                             for rid, t in times[bus].items())
            tables.append(FaultTable(bus, results[bus].fault_current_a,
                                     ohms[bus], readings,
                                     results[bus].profile))

        coordination = check_pairs(graded, times, {
            bus: res.relay_currents for bus, res in results.items()})
    except (ValueError, KeyError, RuntimeError) as exc:
        raise ScenarioError(f"scenario {scenario.id}: {exc}") from exc

    return StudyReport(scenario_id=scenario.id, fault_tables=tuple(tables),
                       coordination=coordination, sizing=sizing)


# ---------------------------------------------------------------------------
# report emission


def _coordination_md(report: CoordinationReport, full: bool) -> list[str]:
    rows = [CSV_COLUMNS, ["---"] * len(CSV_COLUMNS)]
    rows += [row_cells(r, full) for r in report.rows]
    return ["| " + " | ".join(cells) + " |" for cells in rows]


def emit_report(report: StudyReport, format: str = "md",
                full_precision: bool = False) -> str:
    """Render a study report; md for reading, csv for machine hand-off."""
    if format == "csv":
        return report_to_csv(report.coordination, full_precision)
    if format != "md":
        raise ValueError(f"unknown report format {format!r}")

    full = full_precision
    lines = [f"# Scenario {report.scenario_id}", ""]
    if report.sizing is not None:
        s = report.sizing
        lines += [f"UFCL sized to {format_number(s.r_star, full)} ohm "
                  f"(achieved {format_number(s.achieved_current_a, full)} A "
                  f"against target {format_number(s.target_current_a, full)} "
                  f"A in {s.iterations} evaluations).", ""]
    for t in report.fault_tables:
        lines += [f"## Fault at {t.fault_bus}", ""]
        note = f"Fault current: {format_number(t.fault_current_a, full)} A"
        if t.ufcl_state_ohm:
            note += (f" with {format_number(t.ufcl_state_ohm, full)} ohm "
                     f"limiter in circuit")
        lines += [note, "",
                  "| relay | current_a | time_s |",
                  "| --- | --- | --- |"]
        for r in t.readings:
            lines.append(f"| {r.relay} | {format_number(r.current_a, full)} "
                         f"| {format_number(r.time_s, full)} |")
        lines.append("")
    lines += ["## Coordination", ""]
    lines += _coordination_md(report.coordination, full)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _read_net(path: str | None) -> tuple[Path, Network]:
    file = Path(path) if path else bundled_dataset_path()
    # ValueError covers NetworkFormatError and a file that is not UTF-8
    try:
        return file, load_network(file.read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        _fail(f"{file}: {exc}")


def _load_net(path: str | None) -> Network:
    file, net = _read_net(path)
    problems = validate(net)
    if problems:
        for v in problems:
            click.echo(str(v), err=True)
        _fail(f"{file}: {len(problems)} validation problem(s)")
    return net


def _debug_dump(snet: Network, report: StudyReport) -> str:
    """Ybus entries and post-fault voltages as row,col,re,im.

    Matrix entries use their bus indices, with no limiter resistance; the
    voltage profile of the report's fault table number k (1-based) appears
    as rows (i, -k, re, im).
    """
    cells = [(i, j, y) for i, row in enumerate(build_ybus(snet)[0].tolist())
             for j, y in enumerate(row) if y]  # row by row
    cells += [(i, -k, v) for k, t in enumerate(report.fault_tables, start=1)
              for i, v in enumerate(t.bus_voltages_pu)]
    return "row,col,re,im\n" + "".join(
        f"{i},{j},{y.real!r},{y.imag!r}\n" for i, j, y in cells)


class _StudioGroup(click.Group):
    """Exit 2 is reserved for coordination verdicts, so command line
    mistakes (unknown flags, bad choices) must exit 1 instead of click's
    default 2. This is also the commands' one error boundary: an OSError,
    ValueError or RuntimeError from any of them ends in one error line and
    exit 1."""

    def main(self, *args, **kwargs):
        kwargs.setdefault("standalone_mode", False)
        try:
            return super().main(*args, **kwargs)
        except click.exceptions.Exit as exc:
            sys.exit(exc.exit_code)
        except click.Abort:
            sys.exit(1)
        except click.ClickException as exc:
            exc.show()
            sys.exit(1)
        # after the click clauses: Exit and Abort are RuntimeErrors too
        except (OSError, ValueError, RuntimeError) as exc:
            _fail(str(exc))


@click.group(cls=_StudioGroup)
def cli():
    """Overcurrent coordination studies on DG networks with a tie-line
    fault current limiter."""


@cli.command("run")
@click.option("--network", "network_path", default=None,
              help="Network JSON (defaults to the bundled study grid).")
@click.option("--scenario", "scenario_id", required=True,
              type=click.Choice(sorted(SCENARIOS)))
@click.option("--fault-bus", "fault_buses", multiple=True,
              help="Override the scenario fault buses (repeatable).")
@click.option("--format", "fmt", type=click.Choice(["md", "csv"]),
              default="md", show_default=True)
@click.option("--out", "out_path", default=None,
              help="Write the report here instead of stdout.")
@click.option("--full-precision", is_flag=True,
              help="Full float precision instead of 4 significant digits.")
@click.option("--debug-csv", "debug_path", default=None,
              help="Dump Ybus and post-fault voltages (row,col,re,im).")
def run_cmd(network_path, scenario_id, fault_buses, fmt, out_path,
            full_precision, debug_path):
    """Run one study scenario and report currents, times and verdicts."""
    net = _load_net(network_path)
    scenario = SCENARIOS[scenario_id]
    if fault_buses:
        scenario = replace(scenario, fault_buses=tuple(fault_buses))
    report = run_scenario(net, scenario)
    if debug_path:
        Path(debug_path).write_text(_debug_dump(
            build_scenario_net(net, scenario), report))
    text = emit_report(report, fmt, full_precision)
    if out_path:
        Path(out_path).write_text(text)
    else:
        click.echo(text, nl=False)
    sys.exit(0 if report.coordination.all_ok else 2)


@cli.command("size-ufcl")
@click.option("--network", "network_path", default=None,
              help="Network JSON (defaults to the bundled study grid).")
@click.option("--fault-bus", "fault_bus", required=True)
def size_cmd(network_path, fault_bus):
    """Size the limiter to restore the pre-DG fault level at one bus."""
    net = _load_net(network_path)
    result = size_ufcl(net, fault_bus)
    click.echo(f"r_star_ohm = {result.r_star!r}")
    click.echo(f"achieved_a = {result.achieved_current_a!r}")
    click.echo(f"target_a = {result.target_current_a!r}")
    click.echo(f"iterations = {result.iterations}")


def _parse_times_csv(text: str,
                     net: Network) -> dict[str, dict[str, float | None]]:
    """Operate times by fault bus and relay: one row per pair of ids, each
    id in the network; a relay that no pair grades may have a row."""
    reader = csv.DictReader(io.StringIO(text))
    need = ("fault_bus", "relay", "t_s")
    if reader.fieldnames is None or not set(need) <= set(reader.fieldnames):
        raise ValueError("times csv needs columns: fault_bus, relay, t_s")
    buses, relays = set(net.bus_ids()), {r.id for r in net.relays}
    out: dict[str, dict[str, float | None]] = {}
    lines: dict[tuple[str, str], int] = {}  # the line of each id pair
    for row in reader:
        if any(row[col] is None for col in need):
            raise ValueError(f"times csv line {reader.line_num}: fewer "
                             f"fields than the header")
        bus, relay = row["fault_bus"].strip(), row["relay"].strip()
        if bus not in buses or relay not in relays:
            unknown = (f"fault bus {bus!r}" if bus not in buses
                       else f"relay {relay!r}")
            raise ValueError(f"times csv line {reader.line_num}: {unknown} "
                             f"is not in the network")
        if (bus, relay) in lines:
            raise ValueError(f"times csv line {reader.line_num}: {bus} "
                             f"{relay} is already on line {lines[bus, relay]}")
        lines[bus, relay] = reader.line_num
        raw = row["t_s"].strip()
        try:
            t = None if raw in ("", "none", "no_trip") else float(raw)
        except ValueError:
            t = math.nan  # not a number: rejected with the other bad times
        if t is not None and not 0 <= t < math.inf:
            raise ValueError(f"times csv line {reader.line_num}: t_s must be "
                             f"a finite number >= 0, not {raw!r}")
        out.setdefault(bus, {})[relay] = t
    return out


@cli.command("check")
@click.option("--network", "network_path", default=None,
              help="Network JSON (defaults to the bundled study grid).")
@click.option("--times", "times_path", required=True,
              help="CSV of externally supplied operate times "
                   "(fault_bus, relay, t_s; blank t_s = no trip).")
@click.option("--full-precision", is_flag=True)
def check_cmd(network_path, times_path, full_precision):
    """Grade the declared pairs against externally supplied times."""
    net = _load_net(network_path)
    report = check_pairs(net.pairs, _parse_times_csv(
        Path(times_path).read_text(encoding="utf-8-sig"), net))
    for line in _coordination_md(report, full_precision):
        click.echo(line)
    sys.exit(0 if report.all_ok else 2)


@cli.command("validate")
@click.option("--network", "network_path", default=None,
              help="Network JSON (defaults to the bundled study grid).")
def validate_cmd(network_path):
    """Load a network file and report every invariant violation."""
    _, net = _read_net(network_path)
    problems = validate(net)
    for v in problems:
        click.echo(str(v))
    if problems:
        _fail(f"{len(problems)} validation problem(s)")
    click.echo(f"ok: {len(net.buses)} buses, {len(net.branches)} branches, "
               f"{len(net.sources)} sources, {len(net.relays)} relays")


if __name__ == "__main__":
    cli()
