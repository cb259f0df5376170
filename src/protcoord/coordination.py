"""CTI checking and minimal-TDS coordination.

The coordination time interval (CTI) between a main relay and its backup
must land inside the fixed band [CTI_MIN, CTI_MAX] = [0.3, 0.6] s,
endpoints included. check_pairs grades the main/backup pairs it is given
from their operate times per fault bus, whether a study evaluated them
from the relay curves or they were supplied from outside, and returns one
verdict row per pair; optimize_tds finds the smallest TDS per relay on a
dial grid of fixed step TDS_STEP, 0.05, from the fault currents each relay
sees at the network's declared pairs, by the classical downstream-first
radial sweep, grading each pick by check_pairs' own rule.
"""

from __future__ import annotations

import csv
import io
from graphlib import CycleError, TopologicalSorter
from itertools import count, takewhile
from typing import Iterable, Mapping, NamedTuple

from .netmodel import CoordinationPair, Network
from .relaycurve import operate_time

__all__ = [
    "CTI_MIN", "CTI_MAX", "TDS_STEP", "CoordinationRow",
    "CoordinationReport", "TdsInfeasibleError", "check_pairs", "optimize_tds",
    "report_to_csv", "row_cells", "format_number", "CSV_COLUMNS",
]

CTI_MIN, CTI_MAX = 0.3, 0.6  # seconds
TDS_STEP = 0.05  # spacing of optimize_tds's dial grid

CSV_COLUMNS = ("fault_bus", "main", "backup", "i_main_a", "i_backup_a",
               "t_main_s", "t_backup_s", "cti_s", "verdict")


class TdsInfeasibleError(ValueError):
    """No TDS on the grid satisfies the CTI floor for some relay."""


class CoordinationRow(NamedTuple):
    fault_bus: str
    main: str
    backup: str
    i_main_a: float | None
    i_backup_a: float | None
    t_main_s: float | None
    t_backup_s: float | None
    cti_s: float | None
    verdict: str


class CoordinationReport(NamedTuple):
    rows: tuple[CoordinationRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.verdict == "ok" for r in self.rows)


def _verdict(t_main: float | None,
             t_backup: float | None) -> tuple[float | None, str]:
    if t_main is None or t_backup is None:
        return None, "no_trip"
    cti = t_backup - t_main
    if cti < 0:  # negative: the backup won the race
        return cti, "backup_first"
    if cti < CTI_MIN:
        return cti, "too_fast"
    if cti <= CTI_MAX:
        return cti, "ok"
    return cti, "too_slow"


def check_pairs(pairs: Iterable[CoordinationPair],
                times: Mapping[str, Mapping[str, float | None]],
                currents: Mapping[str, Mapping[str, float]] | None = None,
                ) -> CoordinationReport:
    """Grade every pair at its fault bus, one row each, in pairs' order.

    times maps fault bus to relay to operate seconds (None: the relay does
    not trip). currents, when given, maps fault bus to relay to amperes
    and fills the rows' current columns; without it they stay empty.
    """
    rows = []
    for pair in pairs:
        if pair.fault_bus not in times:
            raise ValueError(f"no operate times for bus {pair.fault_bus!r}")
        bus_times = times[pair.fault_bus]
        for rid in (pair.main, pair.backup):
            if rid not in bus_times:
                raise ValueError(
                    f"no operate time supplied for relay {rid!r}")
        amps = currents[pair.fault_bus] if currents is not None else {}
        t_main, t_backup = bus_times[pair.main], bus_times[pair.backup]
        cti, verdict = _verdict(t_main, t_backup)
        rows.append(CoordinationRow(
            fault_bus=pair.fault_bus, main=pair.main, backup=pair.backup,
            i_main_a=amps.get(pair.main), i_backup_a=amps.get(pair.backup),
            t_main_s=t_main, t_backup_s=t_backup,
            cti_s=cti, verdict=verdict))
    return CoordinationReport(rows=tuple(rows))


def optimize_tds(net: Network, currents: Mapping[str, Mapping[str, float]],
                 tds_min: float = 0.05,
                 tds_max: float = 3.0) -> dict[str, float]:
    """Smallest grid TDS per relay that check_pairs grades coordinated,
    downstream first, over net.pairs.

    currents maps fault bus to relay to amperes; the grid is tds_min +
    k * TDS_STEP up to tds_max, and a tds_min that is not > 0 raises
    ValueError. Mains take tds_min (smaller is always better for their
    own pairs); each backup then takes the smallest grid value at which
    _verdict, the rule check_pairs grades with, finds none of its pairs
    too_fast or backup_first against the mains already assigned. A main
    that never trips sets no floor; a backup that does not trip while its
    main does is never coordinated. Pair chains must be radial. A relay
    with no workable grid value raises TdsInfeasibleError.
    """
    if not tds_min > 0:
        raise ValueError(f"tds_min must be positive, got {tds_min}")
    pairs = net.pairs
    for bus in {p.fault_bus for p in pairs}:
        if bus not in currents:
            raise ValueError(f"no fault currents for bus {bus!r}")
    grid = list(takewhile(lambda tds: tds <= tds_max + 1e-12,
                          (tds_min + k * TDS_STEP for k in count())))

    # downstream-first order: every pair's main before its backup
    mains = {r.id: {p.main for p in pairs if p.backup == r.id}
             for r in net.relays}
    try:
        order = list(TopologicalSorter(mains).static_order())
    except CycleError:
        raise ValueError("coordination pairs are not radial "
                         "(cycle of main/backup relations)") from None

    assigned: dict[str, float] = {}
    for rid in order:
        relay = net.relay_by_id(rid)
        races = []  # (this relay's amperes, its main's operate time)
        for p in pairs:
            amps = currents[p.fault_bus]
            if p.backup == rid and (t_main := operate_time(
                    net.relay_by_id(p.main)._replace(tds=assigned[p.main]),
                    amps[p.main])) is not None:
                races.append((amps[rid], t_main))
        # with the main tripping, only ok and too_slow leave it coordinated
        choice = next((tds for tds in grid if all(
            _verdict(t_main, operate_time(relay._replace(tds=tds), amps))[1]
            in ("ok", "too_slow") for amps, t_main in races)), None)
        if choice is None:
            raise TdsInfeasibleError(
                f"relay {rid!r}: no tds in [{tds_min}, {tds_max}] "
                f"step {TDS_STEP} keeps CTI >= {CTI_MIN} for its pairs")
        assigned[rid] = choice
    return assigned


# ---------------------------------------------------------------------------
# serialization


def format_number(x: float | None, full_precision: bool = False) -> str:
    if x is None:
        return ""
    if full_precision:
        return repr(float(x))
    return f"{x:.4g}"


def row_cells(row: CoordinationRow, full_precision: bool = False) -> list[str]:
    """The CSV_COLUMNS cells of one row, as every report format prints them."""
    return [row.fault_bus, row.main, row.backup,
            format_number(row.i_main_a, full_precision),
            format_number(row.i_backup_a, full_precision),
            format_number(row.t_main_s, full_precision),
            format_number(row.t_backup_s, full_precision),
            format_number(row.cti_s, full_precision), row.verdict]


def report_to_csv(report: CoordinationReport,
                  full_precision: bool = False) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(row_cells(r, full_precision) for r in report.rows)
    return out.getvalue()
