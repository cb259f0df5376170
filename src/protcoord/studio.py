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
the scenario network (faultcalc.LimiterStates, which reads any of its
buses) reads the sizing map, the bare-grid target and every fault table,
each group of buses at the resistance it sees. The sizing adds one solve
of its own, to confirm R*, on a copy of the network without relays, which
reads the same fault current. A study partitions the graph at the tie
once: the one set of downstream buses gives each fault bus its
resistance and rejects a designated sizing bus on the downstream side,
so size_ufcl, handed the states, does not partition again. A report
holds numbers only and keeps no states alive; `run --debug-csv` reads
each table's post-fault voltage profile from states it builds again from
the same network.
One pass over the declared pairs picks the graded ones, those at the
fault buses, in file order, and checks that each names relays the
network has. A fault table reads the relays of its bus's pairs first,
main before backup and each once, then the others in network order.

Exit codes: 0 all pairs coordinate, 2 coordination violations, 1 error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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


class Scenario(NamedTuple):
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


class RelayReading(NamedTuple):
    relay: str
    current_a: float
    time_s: float | None


@dataclass(frozen=True)
class FaultTable:
    """One fault's readings, with the limiter at ufcl_state_ohm."""

    fault_bus: str
    fault_current_a: float
    ufcl_state_ohm: float
    readings: tuple[RelayReading, ...]


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
                s = s._replace(kind="induction_dg")
        kept.append(s)
    return net._replace(sources=tuple(kept))


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
        states = LimiterStates(snet)
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
            elif sizing_bus in down:
                raise ValueError(
                    f"fault bus {sizing_bus!r} is downstream of the "
                    f"limiter; sizing needs an upstream bus")
            sizing = size_ufcl(snet, sizing_bus, states=states)
            ohms = {bus: snet.ufcl.r_normal if bus in down else sizing.r_star
                    for bus in buses}
        # fault buses grouped by limiter ohms: one read of the states each
        groups: dict[float, list[str]] = {}
        for bus, r_ohm in ohms.items():
            groups.setdefault(r_ohm, []).append(bus)
        results = {res.fault_bus: res for r_ohm, group in groups.items()
                   for res in states.solve(group, r_ohm)}

        # one operate-time evaluation per relay and fault: the tables print
        # it, and the pairs are graded from it at the buses that have pairs,
        # the only buses check_pairs reads. A reading is made by
        # tuple.__new__, which RelayReading(...) calls behind a Python-level
        # __new__ that costs more than the tuple itself
        tables, times, currents, new = [], {}, {}, tuple.__new__
        for bus in buses:
            res, first, readings = results[bus], pair_relays[bus], []
            amps = res.relay_currents
            # a bus without pairs reads its relays in network order
            for rid in dict.fromkeys([*first, *relays]) if first else relays:
                readings.append(new(RelayReading, (
                    rid, a := amps[rid], operate_time(relays[rid], a))))
            if first:
                times[bus] = {r.relay: r.time_s for r in readings}
                currents[bus] = amps
            tables.append(FaultTable(bus, res.fault_current_a, ohms[bus],
                                     tuple(readings)))

        coordination = check_pairs(graded, times, currents)
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
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def _read_net(path: str | None) -> tuple[Path, Network]:
    file = bundled_dataset_path() if path is None else Path(path)
    # ValueError covers NetworkFormatError and a file that is not UTF-8
    try:
        return file, load_network(file.read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        _fail(f"{file}: {exc}")


def _load_net(path: str | None) -> Network:
    file, net = _read_net(path)
    problems = validate(net)
    if problems:
        print(*problems, sep="\n", file=sys.stderr)
        _fail(f"{file}: {len(problems)} validation problem(s)")
    return net


def _debug_dump(snet: Network, report: StudyReport) -> str:
    """Ybus entries and post-fault voltages as row,col,re,im.

    Matrix entries use their bus indices, with no limiter resistance; the
    voltage profile of the report's fault table number k (1-based), read
    from limiter states of the scenario network at the table's limiter
    resistance, appears as rows (i, -k, re, im).
    """
    states = LimiterStates(snet)
    cells = [(i, j, y) for i, row in enumerate(build_ybus(snet)[0])
             for j, y in enumerate(row) if y]  # row by row
    cells += [(i, -k, v) for k, t in enumerate(report.fault_tables, start=1)
              for i, v in enumerate(states.profile(t.fault_bus,
                                                   t.ufcl_state_ohm))]
    return "row,col,re,im\n" + "".join(
        f"{i},{j},{y.real!r},{y.imag!r}\n" for i, j, y in cells)


def _run_cmd(opts: argparse.Namespace) -> int:
    """Run one study scenario and report currents, times and verdicts."""
    net = _load_net(opts.network)
    scenario = SCENARIOS[opts.scenario]
    if opts.fault_bus is not None:
        scenario = scenario._replace(fault_buses=tuple(opts.fault_bus))
    report = run_scenario(net, scenario)
    if opts.debug_csv is not None:
        Path(opts.debug_csv).write_text(_debug_dump(
            build_scenario_net(net, scenario), report))
    text = emit_report(report, opts.format, opts.full_precision)
    if opts.out is not None:
        Path(opts.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if report.coordination.all_ok else 2


def _size_cmd(opts: argparse.Namespace) -> None:
    """Size the limiter to restore the pre-DG fault level at one bus."""
    result = size_ufcl(_load_net(opts.network), opts.fault_bus)
    print(f"r_star_ohm = {result.r_star!r}")
    print(f"achieved_a = {result.achieved_current_a!r}")
    print(f"target_a = {result.target_current_a!r}")
    print(f"iterations = {result.iterations}")


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
            # + 0.0 makes a -0 read as 0, which the report prints unsigned
            t = None if raw in ("", "none", "no_trip") else float(raw) + 0.0
        except ValueError:
            t = math.nan  # not a number: rejected with the other bad times
        if t is not None and not 0 <= t < math.inf:
            raise ValueError(f"times csv line {reader.line_num}: t_s must be "
                             f"a finite number >= 0, not {raw!r}")
        out.setdefault(bus, {})[relay] = t
    return out


def _check_cmd(opts: argparse.Namespace) -> int:
    """Grade the declared pairs against externally supplied times."""
    net = _load_net(opts.network)
    report = check_pairs(net.pairs, _parse_times_csv(
        Path(opts.times).read_text(encoding="utf-8-sig"), net))
    for line in _coordination_md(report, opts.full_precision):
        print(line)
    return 0 if report.all_ok else 2


def _validate_cmd(opts: argparse.Namespace) -> None:
    """Load a network file and report every invariant violation."""
    _, net = _read_net(opts.network)
    problems = validate(net)
    if problems:
        print(*problems, sep="\n")
        _fail(f"{len(problems)} validation problem(s)")
    print(f"ok: {len(net.buses)} buses, {len(net.branches)} branches, "
          f"{len(net.sources)} sources, {len(net.relays)} relays")


class _Parser(argparse.ArgumentParser):
    """Exit 2 is reserved for coordination verdicts, so a command line
    mistake (an unknown flag or command, a bad choice, an abbreviated
    option) ends in the usage line, one error line and exit 1. An unknown
    option is named before the required arguments it leaves missing:
    argparse checks those first, so `run --scen s0_no_dg` would report
    --scenario missing rather than --scen unrecognized."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs, allow_abbrev=False)

    def parse_known_args(self, args=None, namespace=None):
        self._given = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # argparse takes no value that starts with "-" for an option, so
        # each such word but "-" and "--" is an option string, known or not
        unknown = [a for a in self._given if a.strip("-") and a[0] == "-"
                   and a.split("=")[0] not in self._option_string_actions]
        if unknown and message.startswith("the following arguments are"):
            message = f"unrecognized arguments: {unknown[0]}"
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _parser(prog: str) -> _Parser:
    """Overcurrent coordination studies on DG networks with a tie-line
    fault current limiter."""
    # the docstring is the --help text; a parse holds each option by its
    # name and its command's function as `command`
    parser = _Parser(prog=prog, description=_parser.__doc__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, fn):
        sub = commands.add_parser(name, help=fn.__doc__,
                                  description=fn.__doc__)
        sub.set_defaults(command=fn)
        sub.add_argument("--network", help="Network JSON (defaults to the "
                         "bundled study grid).")
        return sub.add_argument

    option = command("run", _run_cmd)
    option("--scenario", required=True, choices=sorted(SCENARIOS))
    option("--fault-bus", action="append",
           help="Override the scenario fault buses (repeatable).")
    option("--format", choices=["md", "csv"], default="md",
           help="[default: md]")
    option("--out", help="Write the report here instead of stdout.")
    option("--full-precision", action="store_true",
           help="Full float precision instead of 4 significant digits.")
    option("--debug-csv",
           help="Dump Ybus and post-fault voltages (row,col,re,im).")
    command("size-ufcl", _size_cmd)("--fault-bus", required=True)
    option = command("check", _check_cmd)
    option("--times", required=True,
           help="CSV of externally supplied operate times "
                "(fault_bus, relay, t_s; blank t_s = no trip).")
    option("--full-precision", action="store_true")
    command("validate", _validate_cmd)
    return parser


class _Cli:
    """The `protcoord` command line.

    main() parses, runs one command and ends in sys.exit: 0 or 2 by the
    verdicts of `run` and `check`, 1 for an error. It is also the
    commands' one error boundary: an OSError, ValueError or RuntimeError
    from any of them ends in one error line and exit 1, and so does an
    empty path option, named before the command runs. Calling the object
    itself is the process entry (the console script and `python -m
    protcoord.studio`): it first moves every object the imports made to
    the collector's permanent generation, so neither a collection during
    the command nor the one at exit walks them. main() does not freeze,
    because tests and perfbench call it in a process that goes on running.
    """

    name = "protcoord"  # the program name in usage lines

    def __call__(self):
        gc.freeze()
        self.main()

    def main(self, args=None, prog_name=None):
        opts = _parser(prog_name or self.name).parse_args(args)
        # an empty path names no file, not the working directory
        for dest in ("network", "out", "debug_csv", "times"):
            if getattr(opts, dest, None) == "":
                _fail(f"--{dest.replace('_', '-')}: empty path")
        try:
            sys.exit(opts.command(opts))  # None: exit 0
        except (OSError, ValueError, RuntimeError) as exc:
            _fail(str(exc))


cli = _Cli()


if __name__ == "__main__":
    cli()
