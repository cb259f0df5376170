"""Balanced three-phase fault solutions.

Single-phase positive-sequence nodal model: every source is an EMF behind
its internal impedance, loads are constant shunt impedances, and a fault
is a three-phase short circuit at a bus through zero fault impedance,
solved by superposition on the nodal admittance matrix. Relay currents
come straight out of the post-fault voltage across each relay branch;
there is no separate load-flow overlay. Each operating state builds its
taps once, for the relay branches and the limiter's tie only (the from
and to bus index and i_base[from] / z, keyed by branch id), and a fault
reads its relay currents at those taps, so a study pays only for the
relay branches.
build_ybus returns the admittance matrix of the state with the limiter at
R = 0: the matrix that `run --debug-csv` prints.

The limiter changes one branch admittance, a rank-one change of Y, so one
factorisation gives every limiter state (the compensation method, Tinney
1972; Sherman-Morrison). LimiterStates holds that one factorisation: it
reads any resistance's fault solutions from it and gives each bus's fault
current as a closed-form LevelMap of R. Taking a DG out of service
removes a shunt and an injection at its bus, rank-one changes too, so the
same solve, which also carries a column for every DG's bus, gives each
bus's bare-grid fault level, with only the infinite_grid sources in
service (LimiterStates.grid_level). A batch of faults at one resistance R
is LimiterStates(net, R).solve(buses, R); solve_fault is that read for one
FaultSpec, and with oracle_solve the one-shot entry.

_nodal stamps Y sparse: its diagonal and one dict of off-diagonal entries
per row. There is one solution route at every size, in pure Python: an
LDL^T of the sparse Y in minimum-degree order (Tinney and Walker, Proc.
IEEE 55(11), 1967), whose cost grows with Y's nonzeros rather than with
n^3, substitutions against a few narrow columns, and Z = Y^-1's diagonal
read from the factors (Takahashi, Fagan and Chen, 8th PICA, 1973). A
study never imports numpy; build_ybus and oracle_solve import it on call.

oracle_solve is a deliberately separate second route (explicit EMF nodes,
source-current unknowns, dense inversion) used by the test suite to check
the first. The two routes share only to_per_unit. The oracle's record,
OracleResult, is not a FaultResult: it holds FaultResult's fields first,
in the same order, then the complex fault current and every branch's
current, so code that reads a FaultResult reads it the same way.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .netmodel import (Branch, Network, PuNetwork, Source, reachable,
                       to_per_unit)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FaultSpec", "FaultResult", "OracleResult", "LevelMap", "LimiterStates",
    "build_ybus", "solve_fault", "oracle_solve",
]

# induction machines present a slightly larger transient impedance than an
# equally rated synchronous unit; read at call time by both solution routes
INDUCTION_Z_MULT = 1.05
# a tie whose current in the faulted state is below this share of the
# fault current (per-unit) carries round-off: the limiter changes nothing
IDLE_TIE_TOL = 1e-9

# Y as stamped: its diagonal, and per row a dict of column -> entry
_Stamps = tuple[list[complex], list[dict[int, complex]]]
# Y = L D L^T: per elimination step (k, [(i, L[i, k]) for each neighbour
# i]), in order; the same flat, [(k, i, L[i, k])]; and 1 / D
_Factors = tuple[list[tuple[int, list]], list[tuple], list[complex]]


def __getattr__(name: str):
    # perfbench/tracer.py's Tracer.install reads faultcalc.np to wrap
    # np.linalg; the module itself never binds it, so that a study does
    # not import numpy. Goes once the tracer wraps the solve itself
    # (ROADMAP item 1)
    if name == "np":
        import numpy
        return numpy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FaultSpec(NamedTuple):
    """A three-phase short circuit at bus, through zero fault impedance."""

    bus: str


class FaultResult(NamedTuple):
    """Solved fault: what a study reads of it.

    fault_current_a is |I_f| in amps on the fault bus's base, and
    relay_currents the magnitude each relay sees (relays act on |I|), in
    amps on its branch's from-side base. bus_voltages_pu is the post-fault
    voltage profile in per-unit, in net.buses order, made by profile on
    each read: a study that reads only currents never pays for it, and a
    reader that wants it twice keeps it (studio.FaultTable caches it).
    """

    fault_bus: str | None
    fault_current_a: float
    relay_currents: dict[str, float]
    profile: Callable[[], list[complex]]

    @property
    def bus_voltages_pu(self) -> list[complex]:
        return self.profile()


class OracleResult(NamedTuple):
    """oracle_solve's record: FaultResult's fields, then the complex fault
    current and every branch's complex current, in amps on its from-side
    base, in net.branches order. The oracle also solves the unfaulted
    network: fault_bus None, no fault current."""

    fault_bus: str | None
    fault_current_a: float
    relay_currents: dict[str, float]
    profile: Callable[[], list[complex]]
    fault_current_c: complex
    branch_currents: dict[str, complex]

    bus_voltages_pu = FaultResult.bus_voltages_pu


def _tie_z(pu: PuNetwork, r_ohm: float) -> tuple[Branch | None, complex]:
    """The limiter's tie branch and its per-unit impedance with r_ohm in
    series, converted in the tie's voltage zone; (None, 0j) for a network
    without a limiter, where r_ohm must be 0."""
    if pu.net.ufcl is None:
        if r_ohm != 0.0:
            raise ValueError("no tie branch to carry the limiter resistance")
        return None, 0j
    if (name := pu.net.ufcl.tie_branch) not in pu.branch_z_pu:
        # worded as partition_by_tie words it
        raise ValueError(f"unknown tie branch {name!r}")
    tie = pu.net.branch_by_id(name)
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
    induction multiplier applied: the bus index, a tap per id of a relay's
    branch or of the tie (from index, to index, i_base[from] / z) that
    turns a voltage profile in per-unit into the branch's current in amps,
    and Y and the Norton source injections in per-unit. LimiterStates
    reads no other branch's tap. Y is its stamps: the diagonal, and one
    dict of off-diagonal entries per row, column index to entry."""
    index = {b.id: i for i, b in enumerate(pu.net.buses)}
    n = len(index)
    diag = [0j] * n
    off = [{} for _ in range(n)]
    injection = [0j] * n

    tie, tie_z = _tie_z(pu, ufcl_state_ohm)
    relayed, taps = {r.branch for r in pu.net.relays}, {}
    for br in pu.net.branches:
        z = tie_z if br is tie else pu.branch_z_pu[br.id]
        y = 1.0 / z
        f, t = index[br.from_bus], index[br.to_bus]
        if br is tie or br.id in relayed:
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


def _factor(y: _Stamps) -> _Factors:
    """LDL^T of the complex symmetric Y without pivoting, in minimum-degree
    order (Tinney and Walker 1967): each step eliminates a bus of fewest
    remaining neighbours, fill included, so a radial feeder factorises
    with no fill. Raises ValueError on an exactly zero pivot.

    Consumes its stamps: the elimination works in y's own diagonal and row
    dicts, so y is not Y afterwards. Its callers factorise stamps that
    _nodal has just built for them and read them no more.
    """
    d, rows = y
    heap = [(len(row), k) for k, row in enumerate(rows)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    steps = []
    while heap:
        degree, k = pop(heap)
        row = rows[k]
        if row is None or len(row) != degree:
            continue  # eliminated, or its degree has changed since
        rows[k] = None
        if (p := d[k]) == 0:
            raise ValueError("Singular matrix")
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
            push(heap, (len(other), i))
        steps.append((k, [(i, v / p) for i, v in row.items()]))
    ops = [(k, i, l) for k, col in steps for i, l in col]
    return steps, ops, [1.0 / p for p in d]  # d now holds the pivots, D


def _substitute(factors: _Factors, x: list[complex]) -> list[complex]:
    """Y^-1 x from the factors, x overwritten. The forward pass skips zero
    entries, so a unit column runs only along its bus's elimination path
    there."""
    _, ops, d_inv = factors
    for k, i, l in ops:
        if xk := x[k]:
            x[i] -= l * xk
    x = [a * r for a, r in zip(x, d_inv)]
    for k, i, l in reversed(ops):
        x[k] -= l * x[i]
    return x


def _z_diagonal(factors: _Factors) -> list[complex]:
    """Z = Y^-1's diagonal from the factors (Takahashi, Fagan and Chen
    1973). In reverse elimination order, for each neighbour j of the bus
    k eliminated, Z[k, j] = -sum_i L[i, k] Z[i, j], then Z[k, k] = 1 / D[k]
    - sum_i L[i, k] Z[i, k]. A bus's neighbours are a clique of the filled
    pattern, all eliminated after it, so every Z[i, j] a sum reads is
    known: Z is worked on the filled pattern only."""
    steps, _, d_inv = factors
    diag, off = list(d_inv), [{} for _ in d_inv]
    for k, col in reversed(steps):
        zk = off[k]
        for j, _ in col:
            s = 0j
            for i, l in col:
                s -= l * (diag[j] if i == j else off[i][j])
            zk[j] = off[j][k] = s
        for i, l in col:
            diag[k] -= l * zk[i]
    return diag


def build_ybus(net: Network) -> tuple[np.ndarray, dict[str, int]]:
    """Assemble the nodal admittance matrix (sources as shunt admittances)
    with the limiter at R = 0. Returns (Y, bus index map); imports numpy.
    """
    import numpy as np
    index, _, (diag, off), _ = _nodal(to_per_unit(net))
    ybus = np.diag(np.array(diag, dtype=complex))
    for i, row in enumerate(off):
        ybus[i, list(row)] = list(row.values())
    return ybus, index


class LevelMap(NamedTuple):
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

    One LDL^T of Y with the limiter at ufcl_state_ohm (the base), solved
    against narrow columns: the injections, whose solution v is the
    prefault voltages; e_from - e_to of each relay branch, so that a
    column's entry at k is the voltage across the branch per unit
    current injected at k; and a unit column per bus of a source that is
    not an infinite_grid. Z's diagonal comes from the factors. The
    limiter's tie has the column w = Z e, e = e_from - e_to, its relay's
    when it has one. The columns past v are substituted on their first
    read and kept, so states read only at their base solve for e only
    when a relay sits on the tie, and only grid_level solves for the DG
    buses. All of it comes from the network alone, so the states read any
    of its buses, and a batch reads bit for bit what a single solve reads.

    Any other R changes the tie admittance by dy: with
    c = dy / (1 + dy e^T w), v_R[i] = v[i] - w[i] c (v_f - v_t) and
    Z_R[i, k] = Z[i, k] - w[i] c w[k], so a fault at bus k reads O(1)
    entries per relay, a branch's column at k by symmetry. The same
    compensation takes the DGs out: grid_level reads a bus's fault level
    with only the infinite_grid sources in service by removing each other
    source's shunt and injection. A fault read by solve is a FaultResult:
    its fault current, each relay's current from the post-fault voltage
    across its branch and the branch's tap, and its voltage profile, one
    substitution made on each read. The stamps are read only by the
    ground check, before _factor consumes them. Raises ValueError, naming
    it, for a bus that no source or load reaches, before any solve, and
    for a bus the network lacks, on its read.
    """

    def __init__(self, net: Network, ufcl_state_ohm: float = 0.0) -> None:
        self._base_ohm = ufcl_state_ohm
        self._pu = pu = to_per_unit(net)
        self._index, self._taps, y, injection = _nodal(pu, ufcl_state_ohm)
        self._tie, self._z0 = _tie_z(pu, ufcl_state_ohm)
        if self._tie is not None:
            self._f, self._t, _ = self._taps[self._tie.id]
        # a component with neither a source nor a load has no path to
        # ground, and its block of Y is singular however it rounds
        grounded = reachable(y[1], [self._index[e.bus] for e in (
            *net.sources, *net.loads)])
        for bus, k in self._index.items():
            if k not in grounded:
                raise ValueError(f"Singular matrix: bus {bus!r} has no path "
                                 f"to ground through a source or a load")
        self._factors = _factor(y)
        self._v = _substitute(self._factors, injection)
        self._zdiag = _z_diagonal(self._factors)
        self._cols: dict[tuple[int, int | None], list[complex]] = {}

    def _row(self, bus: str) -> int:
        """The bus's index, for a bus of the network."""
        if (k := self._index.get(bus)) is None:
            raise ValueError(f"unknown fault bus {bus!r}")
        return k

    def _col(self, i: int, j: int | None = None) -> list[complex]:
        """Z (e_i - e_j), or Z e_i without j: Z's column of the bus i, or
        of the branch from i to j, substituted on its first read and
        kept: a profile's read keeps its fault bus's column too."""
        if (col := self._cols.get((i, j))) is None:
            e = [0j] * len(self._v)
            e[i] = 1 + 0j
            if j is not None:
                e[j] -= 1  # a branch looping on one bus: a zero column
            col = self._cols[i, j] = _substitute(self._factors, e)
        return col

    def _profile(self, k: int, i_f: complex, c: complex,
                 cv: complex) -> list[complex]:
        """The post-fault profile of the fault at bus index k, its current
        i_f in per-unit, with the limiter's update (c, cv) applied."""
        w = self._col(self._f, self._t) if c else [0j] * len(self._v)
        return [v - wi * cv - i_f * (zi - wi * c * w[k])
                for v, wi, zi in zip(self._v, w, self._col(k))]

    def solve(self, buses: Iterable[str],
              r_ohm: float) -> list[FaultResult]:
        """A fault at each of buses, solved with the limiter at r_ohm;
        results are in the order of buses."""
        v, zd, taps, pu = self._v, self._zdiag, self._taps, self._pu
        profile = self._profile  # one bound method for every fault's partial
        c, cv, w = 0j, 0j, [0j] * len(v)  # at the base: no update
        if r_ohm != self._base_ohm:
            tie, z = _tie_z(pu, r_ohm)
            f, t, w = self._f, self._t, self._col(self._f, self._t)
            dy = 1.0 / z - 1.0 / self._z0
            c = dy / (1.0 + dy * (w[f] - w[t]))
            cv = c * (v[f] - v[t])
            taps = {**taps, tie.id: (f, t, pu.i_base[tie.from_bus] / z)}
        # per relay: its branch's column, the prefault voltage across the
        # branch at r_ohm, e_b^T w with e_b = e_from - e_to, and its tap
        relays = [(r.id, self._col(a, b), v[a] - v[b] - (w[a] - w[b]) * cv,
                   w[a] - w[b], s) for r in pu.net.relays
                  for a, b, s in (taps[r.branch],)]
        results = []
        for bus in buses:
            k = self._row(bus)
            ck = c * w[k]
            i_f = (v[k] - w[k] * cv) / (zd[k] - w[k] * ck)
            i_f_amps = complex(i_f * pu.i_base[bus])
            # a relay current within the solution's round-off of zero is 0
            floor = 1e-9 * max(1.0, abs(i_f_amps))
            # fault_bus, fault_current_a, relay_currents, profile
            results.append(FaultResult(
                bus, abs(i_f_amps),
                {rid: a if (a := abs(
                    (dv - i_f * (col[k] - dw * ck)) * s)) > floor else 0.0
                 for rid, col, dv, dw, s in relays},
                partial(profile, k, i_f, c, cv)))
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
        k, f, t, v = self._row(bus), self._f, self._t, self._v
        w = self._col(f, t)
        v_k, z_kk, w_k = v[k], self._zdiag[k], w[k]
        p, h = v[f] - v[t], w[f] - w[t] - self._z0
        i_f = v_k / z_kk
        i0 = complex(i_f * self._pu.i_base[bus])
        # the faulted tie's current, (p - w_k i_f) / z0, against i_f
        if abs(p - w_k * i_f) <= IDLE_TIE_TOL * abs(self._z0 * i_f):
            return LevelMap(i0, 0j, 0j)
        q = self._z0 ** 2 * self._pu.z_base[self._tie.from_bus]
        alpha = (w_k * p - v_k * h) / (q * v_k)
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
        followed by removing the injection. Z[k, k] is the diagonal's,
        and every other entry is read from a source bus's column.
        """
        pu, k = self._pu, self._row(bus)
        dgs = [s for s in pu.net.sources if s.kind != "infinite_grid"]
        cols = [self._col(self._index[s.bus]) for s in dgs]
        rows = (k, *(self._index[s.bus] for s in dgs))
        block = [[self._v[r], self._zdiag[k] if j == 0 else cols[j - 1][k],
                  *(col[r] for col in cols)] for j, r in enumerate(rows)]
        for i, s in enumerate(dgs, start=1):
            z, pivot = _source_z(pu, s), block[i][:]
            for row in block:
                a = row[i + 1] / (z - pivot[i + 1])
                row[:] = [x + a * y for x, y in zip(row, pivot)]
                row[0] -= s.emf_pu / z * row[i + 1]
        return abs(complex(block[0][0] / block[0][1] * pu.i_base[bus]))


def solve_fault(net: Network, fault: FaultSpec,
                ufcl_state_ohm: float = 0.0) -> FaultResult:
    """Solve one fault by Thevenin superposition, with the limiter at
    ufcl_state_ohm: the prefault voltages and the fault bus's Thevenin
    impedance come from one factorisation of Y (LimiterStates read at the
    one bus), so load and DG contributions are inherently superposed, and
    the post-fault voltages feed every reported current."""
    return LimiterStates(net, ufcl_state_ohm).solve(
        [fault.bus], ufcl_state_ohm)[0]


def oracle_solve(net: Network, fault: FaultSpec | None,
                 ufcl_state_ohm: float = 0.0) -> OracleResult:
    """Second, independent solution route, for checking solve_fault.

    Formulates the circuit with an explicit EMF node per source and the
    source currents as unknowns; the fault is a zero-volt constraint
    row whose current unknown is the fault current. Solved by dense
    inversion, once per fault, of a matrix with a row per bus and two per
    source; imports numpy. Kept simple and slow on purpose, not small: it
    takes a network of any size, and exists to disagree with solve_fault
    if either route is wrong.
    """
    import numpy as np
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
    return OracleResult(
        fault_bus=None if fault is None else fault.bus,
        fault_current_a=abs(i_fault_a),
        relay_currents={r.id: abs(branch_currents[r.branch])
                        for r in net.relays},
        profile=x[:n_bus].tolist,
        fault_current_c=i_fault_a,
        branch_currents=branch_currents)
