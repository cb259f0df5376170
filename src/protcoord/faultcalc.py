"""Balanced three-phase fault solutions.

Single-phase positive-sequence nodal model: every source is an EMF behind
its internal impedance, loads are constant shunt impedances, and a fault
is a three-phase short circuit at a bus through zero fault impedance,
solved by superposition on the nodal admittance matrix. Relay currents
come straight out of the post-fault voltage profile; there is no separate
load-flow overlay. Each operating state builds its per-branch taps once
(the from and to bus index and i_base[from] / z, keyed by branch id), and
a fault's branch currents are computed on lookup from its own voltage
profile and those taps, so a study pays only for the branches it reads.
build_ybus returns the admittance matrix of one such state (the limiter
at ufcl_state_ohm): the matrix that `run --debug-csv` prints, at R = 0.

The limiter changes one branch admittance, a rank-one change of Y, so one
factorisation gives every limiter state (the compensation method, Tinney
1972; Sherman-Morrison). LimiterStates holds that one solve: it reads any
resistance's fault solutions from it and gives each bus's fault current
as a closed-form LevelMap of R. Taking a DG out of service removes a
shunt and an injection at its bus, rank-one changes too, so the same
solve also gives each bus's bare-grid fault level, with only the
infinite_grid sources in service (LimiterStates.grid_level). solve_faults
is its read at the resistance it was factorised at.

_nodal stamps Y sparse: its diagonal and one dict of off-diagonal entries
per row. The one solve takes one of two routes by the network's size.
Below SPARSE_MIN_BUSES buses it is LAPACK's, on Y made dense, which wins
on small networks. From SPARSE_MIN_BUSES up it is an LDL^T of the sparse Y
in minimum-degree order (Tinney and Walker, Proc. IEEE 55(11), 1967),
whose cost grows with Y's nonzeros rather than with n^3. build_ybus makes
the same stamps dense.

oracle_solve is a deliberately separate second route (explicit EMF nodes,
source-current unknowns, dense inversion) used by the test suite to check
the first. The two routes share the per-unit conversion and the result
record, FaultResult, and nothing else.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .netmodel import (Branch, Network, PuNetwork, Source, reachable,
                       to_per_unit)

__all__ = [
    "FaultSpec", "FaultResult", "LevelMap", "LimiterStates",
    "build_ybus", "solve_fault", "solve_faults", "oracle_solve",
]

# induction machines present a slightly larger transient impedance than an
# equally rated synchronous unit; read at call time by both solution routes
INDUCTION_Z_MULT = 1.05
# a tie whose current in the faulted state is below this share of the
# fault current (per-unit) carries round-off: the limiter changes nothing
IDLE_TIE_TOL = 1e-9
# from this many buses up, Y is factorised sparse; below, by LAPACK dense
SPARSE_MIN_BUSES = 200

# Y as stamped: its diagonal, and per row a dict of column -> entry
_Stamps = tuple[list[complex], list[dict[int, complex]]]


@dataclass(frozen=True)
class FaultSpec:
    """A three-phase short circuit at bus, through zero fault impedance."""

    bus: str


@dataclass(frozen=True)
class FaultResult:
    """Solved fault: currents in amps on each element's from-side base.

    relay_currents holds magnitudes (relays act on |I|); fault_current_c
    keeps the complex fault current so superposition checks can add
    per-source responses without losing angle. bus_voltages_pu is the
    post-fault voltage profile in per-unit, in net.buses order. The
    oracle also solves the unfaulted network: fault_bus None, no current.
    branch_currents is read-only, in net.branches order; LimiterStates
    computes each one on lookup from a copy of the fault's own voltage
    profile, so a later write into bus_voltages_pu does not reach it.
    """

    fault_bus: str | None
    fault_current_a: float
    relay_currents: dict[str, float]
    branch_currents: Mapping[str, complex]
    fault_current_c: complex
    bus_voltages_pu: np.ndarray = field(compare=False, repr=False)


def _tie_z(pu: PuNetwork, r_ohm: float) -> tuple[Branch | None, complex]:
    """The limiter's tie branch and its per-unit impedance with r_ohm in
    series, converted in the tie's voltage zone; (None, 0j) for a network
    without a limiter, where r_ohm must be 0."""
    if pu.net.ufcl is None:
        if r_ohm != 0.0:
            raise ValueError("no tie branch to carry the limiter resistance")
        return None, 0j
    tie = pu.net.branch_by_id(pu.net.ufcl.tie_branch)
    return tie, pu.branch_z_pu[tie.id] + r_ohm / pu.z_base[tie.from_bus]


def _source_z(pu: PuNetwork, s: Source) -> complex:
    """The source's per-unit internal impedance in the nodal model, the
    induction multiplier applied: _nodal stamps 1 / z and EMF / z."""
    z = pu.source_z_pu[s.id]
    return z * INDUCTION_Z_MULT if s.kind == "induction_dg" else z


def _nodal(pu: PuNetwork, ufcl_state_ohm: float = 0.0,
           ) -> tuple[dict[str, int], dict[str, tuple[int, int, complex]],
                      _Stamps, list[complex]]:
    """One operating state, with the limiter at ufcl_state_ohm and the
    induction multiplier applied: the bus index, one tap per branch id,
    (from index, to index, i_base[from] / z), that turns a voltage profile
    in per-unit into the branch's current in amps, and Y and the Norton
    source injections in per-unit. Y is its stamps: the diagonal, and one
    dict of off-diagonal entries per row, column index to entry."""
    index = {b.id: i for i, b in enumerate(pu.net.buses)}
    n = len(index)
    diag = [0j] * n
    off = [{} for _ in range(n)]
    injection = [0j] * n

    tie, tie_z = _tie_z(pu, ufcl_state_ohm)
    taps = {}
    for br in pu.net.branches:
        z = tie_z if br is tie else pu.branch_z_pu[br.id]
        y = 1.0 / z
        f, t = index[br.from_bus], index[br.to_bus]
        taps[br.id] = (f, t, complex(pu.i_base[br.from_bus] / z))
        if f == t:
            continue  # a branch looping on one bus carries no current
        diag[f] += y
        diag[t] += y
        off[f][t] = off[f].get(t, 0j) - y
        off[t][f] = off[t].get(f, 0j) - y

    for s in pu.net.sources:
        z = _source_z(pu, s)
        k = index[s.bus]
        diag[k] += 1.0 / z
        injection[k] += s.emf_pu / z

    for l in pu.net.loads:
        diag[index[l.bus]] += 1.0 / pu.load_z_pu[l.id]

    return index, taps, (diag, off), injection


def _dense(y: _Stamps) -> np.ndarray:
    """Y from its stamps, as a dense matrix."""
    diag, off = y
    ybus = np.diag(np.array(diag, dtype=complex))
    for i, row in enumerate(off):
        for j, v in row.items():
            ybus[i, j] = v
    return ybus


def _solve(y: _Stamps, rhs: np.ndarray) -> np.ndarray:
    """Y^-1 rhs, every column. Below SPARSE_MIN_BUSES, LAPACK on the dense
    Y. From there up, an LDL^T of the complex symmetric Y without pivoting,
    in minimum-degree order (Tinney and Walker 1967): each step eliminates
    a bus of fewest remaining neighbours, fill included, so a radial
    feeder factorises with no fill. The substitutions go one row operation
    at a time, each over every column of rhs. Raises LinAlgError on an
    exactly zero pivot, as LAPACK does on a singular Y.
    """
    diag, off = y
    if len(diag) < SPARSE_MIN_BUSES:
        return np.linalg.solve(_dense(y), rhs)
    d, rows = list(diag), [dict(row) for row in off]
    heap = [(len(row), k) for k, row in enumerate(rows)]
    heapq.heapify(heap)
    steps = []  # (k, [(i, L[i, k]) for each neighbour i]), in order
    while heap:
        degree, k = heapq.heappop(heap)
        row = rows[k]
        if row is None or len(row) != degree:
            continue  # eliminated, or its degree has changed since
        rows[k] = None
        p = d[k]
        if p == 0:
            raise np.linalg.LinAlgError("Singular matrix")
        # each update is v w / p, not v (w / p), so Y stays exactly
        # symmetric: on the bundled grid, whose tie is 0.006 ohm, that cut
        # the worst fault current's distance to the oracle 2.5-fold
        for i, v in row.items():
            other = rows[i]
            del other[k]
            for j, w in row.items():
                if j == i:
                    d[i] -= v * w / p
                else:
                    other[j] = other.get(j, 0j) - v * w / p
            heapq.heappush(heap, (len(other), i))
        steps.append((k, [(i, v / p) for i, v in row.items()]))
    x = np.array(rhs, dtype=complex)
    xs = list(x)  # row views, written in place
    for k, col in steps:
        for i, l in col:
            xs[i] -= l * xs[k]
    x /= np.array(d)[:, None]  # d now holds the pivots, D
    for k, col in reversed(steps):
        for i, l in col:
            xs[k] -= l * xs[i]
    return x


def build_ybus(net: Network, ufcl_state_ohm: float = 0.0,
               ) -> tuple[np.ndarray, dict[str, int]]:
    """Assemble the nodal admittance matrix (sources as shunt admittances).

    ufcl_state_ohm is added in series with the limiter's tie branch,
    converted to per-unit in the tie's voltage zone. Returns (Y, bus index
    map).
    """
    index, _, y, _ = _nodal(to_per_unit(net), ufcl_state_ohm)
    return _dense(y), index


class _BranchCurrents(Mapping):
    """Branch id -> complex amps of one voltage profile, each computed on
    lookup from the state's taps; read-only, in net.branches order. It
    keeps a private copy of the profile, made a list at the first
    lookup."""

    __slots__ = ("_taps", "_v")

    def __init__(self, taps: dict[str, tuple[int, int, complex]],
                 v: np.ndarray) -> None:
        self._taps = taps
        self._v = v.copy()

    def __getitem__(self, branch_id: str) -> complex:
        f, t, s = self._taps[branch_id]
        if not isinstance(self._v, list):
            self._v = self._v.tolist()
        return (self._v[f] - self._v[t]) * s

    def __iter__(self) -> Iterator[str]:
        return iter(self._taps)

    def __len__(self) -> int:
        return len(self._taps)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class LevelMap:
    """Complex fault current at one bus, in amps, against the limiter
    resistance R in ohms: I_f(R) = (a + b R) / (1 + d R)."""

    a: complex
    b: complex
    d: complex

    def amps(self, r_ohm: float) -> float:
        """|I_f(R)|."""
        return abs((self.a + self.b * r_ohm) / (1.0 + self.d * r_ohm))

    def tie_open_a(self) -> float:
        """|I_f| as R grows without bound: the level with the tie open."""
        return abs(self.b / self.d) if self.d else abs(self.a)


class LimiterStates:
    """Fault solutions at every limiter resistance from one factorisation.

    One solve of Y, with the limiter at ufcl_state_ohm (the base), against
    [injections | e | a unit column per bus], where e = e_from - e_to of
    the limiter's tie; the e column is there only when the network has a
    limiter. The solve is LAPACK's on the dense Y below SPARSE_MIN_BUSES
    buses, and a minimum-degree sparse LDL^T from there up (_solve). Any
    other R changes the tie admittance by dy, and the solution becomes
    X(R) = X - w c (e^T X), with w the e column and
    c = dy / (1 + dy e^T w). The same compensation takes the DGs out:
    grid_level reads a bus's fault level with only the infinite_grid
    sources in service from this solve, by removing each other source's
    shunt and injection. Raises ValueError for a bus the network lacks,
    and on reading a bus that was not given at construction;
    np.linalg.LinAlgError, a ValueError, naming a bus that no source or
    load reaches, before any solve.
    """

    def __init__(self, net: Network, buses: Iterable[str],
                 ufcl_state_ohm: float = 0.0) -> None:
        self._base_ohm = ufcl_state_ohm
        self._pu = pu = to_per_unit(net)
        self._index, self._taps, y, injection = _nodal(pu, ufcl_state_ohm)
        self._tie, self._z0 = _tie_z(pu, ufcl_state_ohm)
        first = 1 if self._tie is None else 2
        self._col = {bus: j for j, bus in enumerate(dict.fromkeys(buses),
                                                    start=first)}
        rhs = np.zeros((len(injection), first + len(self._col)), complex)
        rhs[:, 0] = injection
        if self._tie is not None:
            self._f, self._t, _ = self._taps[self._tie.id]
            rhs[self._f, 1], rhs[self._t, 1] = 1.0, -1.0
        for bus, j in self._col.items():
            if bus not in self._index:
                raise ValueError(f"unknown fault bus {bus!r}")
            rhs[self._index[bus], j] = 1.0
        # a component with neither a source nor a load has no path to
        # ground, and its block of Y is singular however it rounds
        grounded = reachable(y[1], [self._index[e.bus] for e in (
            *net.sources, *net.loads)])
        for bus, k in self._index.items():
            if k not in grounded:
                raise np.linalg.LinAlgError(
                    f"Singular matrix: bus {bus!r} has no path to ground "
                    f"through a source or a load")
        self._x = _solve(y, rhs)
        # each relay branch's from and to bus index, flat, in net.relays
        # order: a fault reads only these entries of its voltage profile
        self._ends = np.array([i for r in pu.net.relays
                               for i in self._taps[r.branch][:2]], np.intp)

    def _column(self, bus: str, role: str = "fault bus") -> tuple[int, int]:
        """The bus's index and the column of its unit injection; role names
        the bus in the error for one the states were not built over."""
        if bus not in self._col:
            raise ValueError(f"{role} {bus!r}: the limiter states were not "
                             f"built for it")
        return self._index[bus], self._col[bus]

    def solve(self, faults: list[FaultSpec],
              r_ohm: float) -> list[FaultResult]:
        """The faults, each at a bus given at construction, solved with
        the limiter at r_ohm; results are in the order of faults. At the
        base resistance the solution is read as it was solved."""
        x, taps = self._x, self._taps
        if r_ohm != self._base_ohm:
            tie, z = _tie_z(self._pu, r_ohm)
            f, t, w = self._f, self._t, x[:, 1]
            dy = 1.0 / z - 1.0 / self._z0
            c = dy / (1.0 + dy * (w[f] - w[t]))
            x = x - np.outer(w, c * (x[f] - x[t]))
            taps = {**taps, tie.id: (f, t, self._pu.i_base[tie.from_bus] / z)}
        relays = [(r.id, taps[r.branch][2]) for r in self._pu.net.relays]
        v_pre = x[:, 0]
        results = []
        for fault in faults:
            k, j = self._column(fault.bus)
            i_f = v_pre[k] / x[k, j]
            v_post = v_pre - i_f * x[:, j]
            i_f_amps = complex(i_f * self._pu.i_base[fault.bus])
            # a relay current within the solution's round-off of zero is 0
            floor = 1e-9 * max(1.0, abs(i_f_amps))
            ends = v_post.take(self._ends).tolist()
            results.append(FaultResult(
                fault_bus=fault.bus,
                fault_current_a=abs(i_f_amps),
                relay_currents={
                    rid: a if (a := abs((vf - vt) * s)) > floor else 0.0
                    for (rid, s), vf, vt in zip(relays, ends[::2],
                                                ends[1::2])},
                branch_currents=_BranchCurrents(taps, v_post),
                fault_current_c=i_f_amps,
                bus_voltages_pu=v_post))
        return results

    def level(self, bus: str) -> LevelMap:
        """The fault current at bus against the limiter resistance, exact.

        With z0 the tie's per-unit impedance at the base, h = e^T w - z0
        and s the per-unit resistance added to the base,
        c = s / (s h - z0^2). The prefault voltage at bus and its
        driving-point impedance each lose a multiple of c, so I_f is a
        Moebius map of s and so of R. Where the tie carries no current in
        the faulted base state (IDLE_TIE_TOL) R changes nothing: the map
        is flat, since its R terms would be ratios of round-off.
        """
        if self._tie is None:
            raise ValueError("no tie branch to carry the limiter resistance")
        (k, j), f, t, x = self._column(bus), self._f, self._t, self._x
        v, z_kk, w_k = x[k, 0], x[k, j], x[k, 1]
        p, h = x[f, 0] - x[t, 0], x[f, 1] - x[t, 1] - self._z0
        i_f = v / z_kk
        i0 = complex(i_f * self._pu.i_base[bus])
        # the faulted tie's current, (p - w_k i_f) / z0, against i_f
        if abs(p - w_k * i_f) <= IDLE_TIE_TOL * abs(self._z0 * i_f):
            return LevelMap(i0, 0j, 0j)
        q = self._z0 ** 2 * self._pu.z_base[self._tie.from_bus]
        alpha = (w_k * p - v * h) / (q * v)
        beta = (w_k * w_k - z_kk * h) / (q * z_kk)
        m = 1.0 - beta * self._base_ohm
        return LevelMap(i0 * (1.0 - alpha * self._base_ohm) / m,
                        i0 * alpha / m, beta / m)

    def grid_level(self, bus: str) -> float:
        """|I_f| at bus, in amps, with only the infinite_grid sources in
        service and the limiter at the base resistance.

        Taking a source out removes its shunt y = 1 / z and its Norton
        injection EMF y at its bus b, so Z gains the rank-one term
        Z e_b e_b^T Z / (z - Z_bb). One such update per source, worked on
        the block of the solution at bus and the source buses (columns:
        prefault voltages and those buses' unit injections), each
        followed by removing the injection. Every source bus must have
        been given at construction.
        """
        pu = self._pu
        dgs = [s for s in pu.net.sources if s.kind != "infinite_grid"]
        rows, cols = zip(self._column(bus),
                         *(self._column(s.bus, "source bus") for s in dgs))
        block = self._x[np.ix_(rows, (0, *cols))]
        for i, s in enumerate(dgs, start=1):
            z, zb = _source_z(pu, s), block[:, i + 1]
            block += np.outer(zb / (z - zb[i]), block[i])
            block[:, 0] -= s.emf_pu / z * block[:, i + 1]
        return abs(complex(block[0, 0] / block[0, 1] * pu.i_base[bus]))


def solve_faults(net: Network, faults: list[FaultSpec],
                 ufcl_state_ohm: float = 0.0) -> list[FaultResult]:
    """Solve faults by Thevenin superposition.

    All faults share one operating state (the limiter at ufcl_state_ohm)
    and so one factorisation of Y: the prefault profile and each fault
    bus's Thevenin column come from the same solve, so load and DG
    contributions are inherently superposed, and the post-fault voltages
    feed every reported current. Results are in the order of faults.
    """
    return LimiterStates(net, [f.bus for f in faults],
                         ufcl_state_ohm).solve(faults, ufcl_state_ohm)


def solve_fault(net: Network, fault: FaultSpec,
                ufcl_state_ohm: float = 0.0) -> FaultResult:
    """Solve one fault: the one-fault case of solve_faults."""
    return solve_faults(net, [fault], ufcl_state_ohm)[0]


def oracle_solve(net: Network, fault: FaultSpec | None,
                 ufcl_state_ohm: float = 0.0) -> FaultResult:
    """Second, independent solution route, for checking solve_fault.

    Formulates the circuit with an explicit EMF node per source and the
    source currents as unknowns; the fault is a zero-volt constraint
    row whose current unknown is the fault current. Solved by dense
    inversion, once per fault, of a matrix with a row per bus and two per
    source. Kept simple and slow on purpose, not small: it takes a
    network of any size, and exists to disagree with solve_fault if
    either route is wrong.
    """
    pu = to_per_unit(net)
    bus_ix = {b.id: i for i, b in enumerate(net.buses)}
    n_bus = len(net.buses)
    n_src = len(net.sources)
    # unknowns: bus voltages, source internal-node voltages, source
    # currents, then the fault current when a fault row is appended
    n_node = n_bus + n_src
    dim = n_node + n_src + (0 if fault is None else 1)

    a = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros(dim, dtype=complex)

    tie = None if net.ufcl is None else net.ufcl.tie_branch

    def stamp(i: int, j: int, y: complex) -> None:
        a[i, i] += y
        a[j, j] += y
        a[i, j] -= y
        a[j, i] -= y

    for br in net.branches:
        z = pu.branch_z_pu[br.id]
        if br.id == tie and ufcl_state_ohm != 0.0:
            z = z + ufcl_state_ohm / pu.z_base[br.from_bus]
        stamp(bus_ix[br.from_bus], bus_ix[br.to_bus], 1.0 / z)

    for l in net.loads:
        a[bus_ix[l.bus], bus_ix[l.bus]] += 1.0 / pu.load_z_pu[l.id]

    for si, s in enumerate(net.sources):
        z = pu.source_z_pu[s.id]
        if s.kind == "induction_dg":
            z = z * INDUCTION_Z_MULT
        node = n_bus + si
        stamp(node, bus_ix[s.bus], 1.0 / z)
        # ideal EMF between the internal node and ground; its current is
        # unknown number n_node + si
        cur = n_node + si
        a[node, cur] += 1.0
        a[cur, node] += 1.0
        rhs[cur] = s.emf_pu

    if fault is not None:
        if fault.bus not in bus_ix:
            raise ValueError(f"unknown fault bus {fault.bus!r}")
        # V_k = 0; the row's unknown, number dim - 1, is the fault current
        k = bus_ix[fault.bus]
        a[k, dim - 1] += 1.0
        a[dim - 1, k] += 1.0

    x = np.linalg.inv(a) @ rhs

    branch_currents = {}
    for br in net.branches:
        z = pu.branch_z_pu[br.id]
        if br.id == tie and ufcl_state_ohm != 0.0:
            z = z + ufcl_state_ohm / pu.z_base[br.from_bus]
        i_pu = (x[bus_ix[br.from_bus]] - x[bus_ix[br.to_bus]]) / z
        branch_currents[br.id] = complex(i_pu * pu.i_base[br.from_bus])

    i_fault_a = 0j
    if fault is not None:
        i_fault_a = complex(x[dim - 1] * pu.i_base[fault.bus])
    return FaultResult(
        fault_bus=None if fault is None else fault.bus,
        fault_current_a=abs(i_fault_a),
        relay_currents={r.id: abs(branch_currents[r.branch])
                        for r in net.relays},
        branch_currents=branch_currents,
        fault_current_c=i_fault_a,
        bus_voltages_pu=x[:n_bus])
