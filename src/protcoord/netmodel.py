"""Network domain types, file loading, validation, and per-unit conversion.

A network is a set of buses joined by branches (lines, transformers, one or
more tie-feeders), with EMF-behind-impedance sources, constant-impedance
shunt loads, overcurrent relays attached to branches, and declared
main/backup coordination pairs. Everything is immutable after load; all
operations here are pure functions.

Network file format (JSON):
    top-level arrays  buses, branches, sources, loads, relays, pairs
    optional object   ufcl
    impedances        {"r": ohms, "x": ohms}
    numbers           finite (NaN, infinities and booleans are rejected)
    optional fields   branch kind (default "line"), referred_side (default
                      "from"), emf_pu (default 1.0), ufcl.r_normal (default
                      0.0), ufcl.sizing_fault_bus, ufcl.sizing_reference_a
The record dataclasses below are the schema: load_network builds each
record from its class's fields (see _record) and ignores any other key.
The ufcl object names only its tie branch: the limiter's resistance is
sized by the study, and its downstream side is found from the topology.
Relay curves are either an explicit {"a":, "b":, "c":} object or the name
of a published family (see relaycurve.curve_family).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import MISSING, dataclass, fields

from .relaycurve import CurveConstants, curve_family

__all__ = [
    "Bus", "Branch", "Source", "ShuntLoad", "RelaySpec", "CoordinationPair",
    "UfclSpec", "Network", "PuNetwork", "Violation", "NetworkFormatError",
    "load_network", "validate", "to_per_unit", "partition_by_tie",
    "reachable",
]

class NetworkFormatError(ValueError):
    """Raised when a network document cannot be loaded."""


@dataclass(frozen=True)
class Bus:
    id: str
    nominal_voltage: float  # volts, line-to-line


@dataclass(frozen=True)
class Branch:
    id: str
    from_bus: str
    to_bus: str
    kind: str  # line | transformer | tie
    impedance: complex  # ohms
    referred_side: str = "from"  # transformer ohms stated on this side


@dataclass(frozen=True)
class Source:
    id: str
    bus: str
    kind: str  # infinite_grid | sync_dg | induction_dg
    internal_impedance: complex  # ohms
    emf_pu: float = 1.0


@dataclass(frozen=True)
class ShuntLoad:
    id: str
    bus: str
    impedance: complex  # ohms


@dataclass(frozen=True)
class RelaySpec:
    id: str
    branch: str
    pickup_a: float
    tds: float
    curve: CurveConstants


@dataclass(frozen=True)
class CoordinationPair:
    main: str
    backup: str
    fault_bus: str


@dataclass(frozen=True)
class UfclSpec:
    """Unidirectional fault current limiter on a tie branch.

    Upstream faults see the limiter's resistance, downstream faults see
    r_normal (usually 0). The limiter's resistance is not a file field:
    a study applies the R* that ufcl.size_ufcl finds. Its direction is not
    one either: the downstream side is the side of the tie away from the
    infinite_grid source (partition_by_tie). sizing_fault_bus /
    sizing_reference_a optionally record the study's designated sizing bus
    (on the grid side) and the pre-DG fault level to restore there; a
    recorded level needs its bus. Sizing at any other bus, or without a
    recorded level, targets the bare-grid level computed from the network
    itself.
    """

    tie_branch: str
    r_normal: float = 0.0
    sizing_fault_bus: str | None = None
    sizing_reference_a: float | None = None


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    sources: tuple[Source, ...]
    loads: tuple[ShuntLoad, ...] = ()
    relays: tuple[RelaySpec, ...] = ()
    pairs: tuple[CoordinationPair, ...] = ()
    ufcl: UfclSpec | None = None
    s_base_va: float = 10e6

    def bus_ids(self) -> list[str]:
        return [b.id for b in self.buses]

    def branch_by_id(self, branch_id: str) -> Branch:
        for br in self.branches:
            if br.id == branch_id:
                return br
        raise KeyError(f"unknown branch {branch_id!r}")

    def relay_by_id(self, relay_id: str) -> RelaySpec:
        for r in self.relays:
            if r.id == relay_id:
                return r
        raise KeyError(f"unknown relay {relay_id!r}")


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.rule} ({self.message})"


# ---------------------------------------------------------------------------
# loading

# file defaults for fields the dataclasses leave required
_DEFAULTS = {(Branch, "kind"): "line"}

# allowed values of a text field, and the message printed for any other
_CHOICES = {
    (Branch, "kind"): (("line", "transformer", "tie"),
                       "unknown branch kind {!r}"),
    (Branch, "referred_side"): (("from", "to"),
                                "referred_side must be from|to"),
    (Source, "kind"): (("infinite_grid", "sync_dg", "induction_dg"),
                       "unknown source kind {!r}"),
}

# top-level arrays and the record each entry holds
_RECORDS = {"buses": Bus, "branches": Branch, "sources": Source,
            "loads": ShuntLoad, "relays": RelaySpec, "pairs": CoordinationPair}


def _number(value, name: str, where: str) -> float:
    """value as a finite float; booleans are not numbers."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise NetworkFormatError(
            f"{where}: {name} must be a finite number, not {value!r}")
    return number


def _impedance(value, name: str, where: str) -> complex:
    if not isinstance(value, dict) or "r" not in value or "x" not in value:
        raise NetworkFormatError(
            f"{where}: impedance must be an object with 'r' and 'x' fields")
    return complex(*(_number(value[part], part, where) for part in "rx"))


def _curve(value, name: str, where: str) -> CurveConstants:
    if isinstance(value, str):
        # family names resolve to published constants; "custom" must carry
        # explicit a/b/c and is rejected by curve_family
        try:
            return curve_family(value)
        except ValueError as exc:
            raise NetworkFormatError(f"{where}: {exc}") from None
    if isinstance(value, dict):
        return _record(CurveConstants, value, where)
    raise NetworkFormatError(
        f"{where}: curve must be a family name or an a/b/c object")


_CONVERTERS = {"str": lambda value, name, where: str(value),
               "float": _number, "complex": _impedance,
               "CurveConstants": _curve}


def _schema(cls) -> tuple:
    """(name, converter, default, choices) for each field of cls."""
    # annotations are text here ("float", "str | None"); the base type
    # picks the converter
    return tuple((f.name, _CONVERTERS[f.type.removesuffix(" | None")],
                  _DEFAULTS.get((cls, f.name), f.default),
                  _CHOICES.get((cls, f.name))) for f in fields(cls))


_FIELDS = {cls: _schema(cls)
           for cls in (*_RECORDS.values(), UfclSpec, CurveConstants)}


def _record(cls, obj, where: str):
    """Build a record of class cls from its JSON object, field by field.

    An absent field takes its default; a field whose default is None (the
    optional `T | None` fields) also takes it for null.
    """
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where}: must be an object")
    values = {}
    for name, convert, default, choices in _FIELDS[cls]:
        value = obj.get(name)
        if value is None and (name not in obj or default is None):
            if default is MISSING:
                owner = "curve " if cls is CurveConstants else ""
                raise NetworkFormatError(
                    f"{where}: {owner}missing field {name!r}")
            values[name] = default
            continue
        value = convert(value, name, where)
        if choices is not None and value not in choices[0]:
            raise NetworkFormatError(f"{where}: " + choices[1].format(value))
        values[name] = value
    return cls(**values)


def load_network(text: str) -> Network:
    """Parse a network document (JSON text) into a Network.

    Each record is built from its dataclass's fields (see _record). Parse
    problems raise NetworkFormatError carrying the line or the array/field
    locus, and a document nested too deeply to parse raises it too;
    references to undefined ids raise NetworkFormatError naming the
    dangling id.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise NetworkFormatError("document nested too deeply") from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("document root must be an object")

    arrays = {}
    for key, cls in _RECORDS.items():
        arr = doc.get(key, [])
        if not isinstance(arr, list):
            raise NetworkFormatError(f"{key}: must be an array")
        arrays[key] = tuple(_record(cls, rec, f"{key}[{i}]")
                            for i, rec in enumerate(arr))
    ufcl = doc.get("ufcl")
    net = Network(
        **arrays,
        ufcl=None if ufcl is None else _record(UfclSpec, ufcl, "ufcl"),
        s_base_va=_number(doc.get("s_base_va", 10e6), "s_base_va", "document"))

    dangling = _dangling_references(net)
    if dangling:
        raise NetworkFormatError(str(dangling[0]))
    return net


def _dangling_references(net: Network) -> list[Violation]:
    """Every reference to an undefined bus, branch or relay, in file order."""
    known = {"bus": set(net.bus_ids()),
             "branch": {br.id for br in net.branches},
             "relay": {r.id for r in net.relays}}
    refs = []  # (referring record, kind of the referenced id, id)
    for br in net.branches:
        refs += [(br.id, "bus", br.from_bus), (br.id, "bus", br.to_bus)]
    refs += [(s.id, "bus", s.bus) for s in net.sources]
    refs += [(l.id, "bus", l.bus) for l in net.loads]
    refs += [(r.id, "branch", r.branch) for r in net.relays]
    for p in net.pairs:
        subject = f"{p.main}/{p.backup}"
        refs += [(subject, "relay", p.main), (subject, "relay", p.backup),
                 (subject, "bus", p.fault_bus)]
    if net.ufcl is not None:
        u = net.ufcl
        refs.append(("ufcl", "branch", u.tie_branch))
        if u.sizing_fault_bus is not None:
            refs.append(("ufcl", "bus", u.sizing_fault_bus))
    return [Violation("referential integrity", subject,
                      f"unknown {kind} {ref!r}")
            for subject, kind, ref in refs if ref not in known[kind]]


# ---------------------------------------------------------------------------
# validation


def _adjacency(net: Network, skip: str | None = None) -> dict[str, set[str]]:
    """Neighbours of each bus over the branches, leaving out branch skip.

    Branches with an undefined end are left out as well.
    """
    adj: dict[str, set[str]] = {b.id: set() for b in net.buses}
    for br in net.branches:
        if br.id != skip and br.from_bus in adj and br.to_bus in adj:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
    return adj


def reachable(adj: Mapping | Sequence, starts: Iterable) -> frozenset:
    """Nodes reachable from any of starts by one depth-first walk of adj,
    which gives each node's neighbours: each bus id's neighbouring bus
    ids, or each row index's column indices in a sparse matrix's rows."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def validate(net: Network) -> list[Violation]:
    """Check every type invariant; violations are data, not exceptions.

    The limiter-side rules (the tie splits the grid from a downstream side
    that does not hold sizing_fault_bus) and the per-unit rules (voltage
    zones and bases, the smallest per-unit branch impedance) run only once
    every other rule holds.
    """
    out: list[Violation] = []

    def bad(rule: str, subject: str, message: str):
        out.append(Violation(rule, subject, message))

    def unique(ids: list[str], what: str):
        seen = set()
        for i in ids:
            if i in seen:
                bad("ids unique", i, f"duplicate {what} id")
            seen.add(i)

    unique([b.id for b in net.buses], "bus")
    unique([b.id for b in net.branches], "branch")
    unique([s.id for s in net.sources], "source")
    unique([l.id for l in net.loads], "load")
    unique([r.id for r in net.relays], "relay")

    for b in net.buses:
        if not b.nominal_voltage > 0:
            bad("nominal_voltage > 0", b.id,
                f"nominal_voltage = {b.nominal_voltage}")

    for br in net.branches:
        if not abs(br.impedance) > 0:
            bad("|impedance| > 0", br.id, "zero branch impedance")
        if br.from_bus == br.to_bus:
            bad("from_bus != to_bus", br.id, "branch loops on one bus")

    for s in net.sources:
        if not abs(s.internal_impedance) > 0:
            bad("|internal_impedance| > 0", s.id, "zero source impedance")
        if not (0.8 < s.emf_pu <= 1.2):
            bad("emf_pu in (0.8, 1.2]", s.id, f"emf_pu = {s.emf_pu}")

    for l in net.loads:
        if not abs(l.impedance) > 0:
            bad("|impedance| > 0", l.id, "zero load impedance")
        if l.impedance.real < 0:
            bad("Re(impedance) >= 0", l.id, "negative load resistance")

    for r in net.relays:
        if not r.pickup_a > 0:
            bad("pickup_a > 0", r.id, f"pickup_a = {r.pickup_a}")
        if not r.tds > 0:
            bad("tds > 0", r.id, f"tds = {r.tds}")
        if not r.curve.a > 0:
            bad("a > 0", r.id, f"curve a = {r.curve.a}")
        if not r.curve.c > 0:
            bad("c > 0", r.id, f"curve c = {r.curve.c}")
        if r.curve.b < 0:
            bad("b >= 0", r.id, f"curve b = {r.curve.b}")

    for p in net.pairs:
        if p.main == p.backup:
            bad("main != backup", f"{p.main}/{p.backup}",
                "pair relays identical")

    if net.ufcl is not None:
        u = net.ufcl
        if not u.r_normal >= 0:
            bad("r_normal >= 0", u.tie_branch, f"r_normal = {u.r_normal}")
        if u.sizing_reference_a is not None:
            if not u.sizing_reference_a > 0:
                bad("sizing_reference_a > 0", "ufcl",
                    f"sizing_reference_a = {u.sizing_reference_a}")
            if u.sizing_fault_bus is None:
                bad("sizing_reference_a needs sizing_fault_bus", "ufcl",
                    "a recorded level without the bus it was recorded at")

    if not any(s.kind == "infinite_grid" for s in net.sources):
        bad("infinite_grid present", "network", "no infinite_grid source")
    if not net.s_base_va > 0:
        bad("s_base_va > 0", "network", f"s_base_va = {net.s_base_va}")

    out += _dangling_references(net)

    # connectivity over the branch graph
    if net.buses:
        seen = reachable(_adjacency(net), [net.buses[0].id])
        for b in sorted(set(net.bus_ids()) - seen):
            bad("graph connected", b, "bus unreachable from first bus")

    # the limiter-side and per-unit rules need every rule above to hold
    if out:
        return out
    if net.ufcl is not None:
        u = net.ufcl
        try:
            down = partition_by_tie(net, u.tie_branch)[1]
        except ValueError as exc:
            bad("tie splits the network in two", u.tie_branch, str(exc))
        else:
            if u.sizing_fault_bus in down:
                bad("sizing_fault_bus on the grid side", u.sizing_fault_bus,
                    f"on the downstream side of {u.tie_branch!r}")
    try:
        pu = to_per_unit(net)
    except ValueError as exc:
        return out + [Violation("per-unit bases", "network", str(exc))]
    # against a 60-digit solve of the bundled grid (s1_dg1, every fault
    # bus), shrinking b12, the tie or b5d costs at most 1.6e-11 relative at
    # 1e-6 pu and passes 1e-9 at about 1e-8 pu; sources and loads keep
    # 1e-12 down to 1e-12 pu and need no bound
    return out + [Violation("|z_pu| >= 1e-6", br_id,
                            f"branch impedance {abs(z):.3g} pu")
                  for br_id, z in pu.branch_z_pu.items()
                  if not abs(z) >= 1e-6]


# ---------------------------------------------------------------------------
# per-unit


@dataclass(frozen=True)
class PuNetwork:
    """A network with every impedance on the common power base.

    z_base and i_base map each bus to its impedance base (ohms) and current
    base (amps), from its zone voltage and s_base_va; the impedance maps
    are per-unit values keyed by element id. The source Network is retained
    for ids, settings and topology.
    """

    net: Network
    z_base: dict[str, float]
    i_base: dict[str, float]
    branch_z_pu: dict[str, complex]
    source_z_pu: dict[str, complex]
    load_z_pu: dict[str, complex]


def to_per_unit(net: Network) -> PuNetwork:
    """Convert all impedances to per-unit on s_base_va and zone voltages.

    The voltage base of each bus is its nominal voltage. Transformer ohms
    are interpreted on their declared referred_side; any other branch must
    join buses of equal nominal voltage. Raises ValueError when it does not,
    or when a bus's impedance base is not a positive float.
    """
    v_base = {b.id: b.nominal_voltage for b in net.buses}
    z_base, i_base = {}, {}
    for bus_id, v in v_base.items():
        z = v * v / net.s_base_va
        if not 0.0 < z < math.inf:
            raise ValueError(f"bus {bus_id!r}: impedance base {z} ohm")
        z_base[bus_id] = z
        i_base[bus_id] = net.s_base_va / (math.sqrt(3.0) * v)

    branch_z = {}
    for br in net.branches:
        if br.kind == "transformer":
            ref_bus = br.from_bus if br.referred_side == "from" else br.to_bus
            branch_z[br.id] = br.impedance / z_base[ref_bus]
        else:
            if v_base[br.from_bus] != v_base[br.to_bus]:
                raise ValueError(
                    f"inconsistent voltage zones across branch {br.id!r}: "
                    f"{v_base[br.from_bus]} V vs {v_base[br.to_bus]} V")
            branch_z[br.id] = br.impedance / z_base[br.from_bus]

    source_z = {s.id: s.internal_impedance / z_base[s.bus]
                for s in net.sources}
    load_z = {l.id: l.impedance / z_base[l.bus] for l in net.loads}

    return PuNetwork(net=net, z_base=z_base, i_base=i_base,
                     branch_z_pu=branch_z, source_z_pu=source_z,
                     load_z_pu=load_z)


# ---------------------------------------------------------------------------
# tie partition


def partition_by_tie(net: Network, tie: str) -> tuple[frozenset, frozenset]:
    """Split the bus set in two by removing the tie branch.

    Returns (upstream, downstream) where upstream is the component holding
    the infinite-grid source. Raises if the tie id is unknown or if its
    removal does not split the graph in exactly two.
    """
    try:
        tie_branch = net.branch_by_id(tie)
    except KeyError:
        raise ValueError(f"unknown tie branch {tie!r}") from None
    adj = _adjacency(net, skip=tie)

    side_a = reachable(adj, [tie_branch.from_bus])
    if tie_branch.to_bus in side_a:
        raise ValueError(
            f"tie removal does not disconnect: {tie!r} is inside a loop")
    side_b = reachable(adj, [tie_branch.to_bus])
    if side_a | side_b != set(b.id for b in net.buses):
        raise ValueError(
            f"tie removal leaves more than two components around {tie!r}")

    grid_buses = {s.bus for s in net.sources if s.kind == "infinite_grid"}
    if not grid_buses:
        raise ValueError("network has no infinite_grid source")
    if grid_buses <= side_a:
        return side_a, side_b
    if grid_buses <= side_b:
        return side_b, side_a
    raise ValueError("infinite_grid sources on both sides of the tie")
