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

oracle_solve is a deliberately separate second route (explicit EMF nodes,
source-current unknowns, dense inversion) used by the test suite to check
solve_fault. The two routes share the per-unit conversion and the result
record, FaultResult, and nothing else.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .netmodel import Network, PuNetwork, to_per_unit

__all__ = [
    "FaultSpec", "FaultResult",
    "build_ybus", "solve_fault", "solve_faults", "oracle_solve",
]

# induction machines present a slightly larger transient impedance than an
# equally rated synchronous unit; read at call time by both solution routes
INDUCTION_Z_MULT = 1.05


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
    branch_currents is read-only, in net.branches order; solve_faults
    computes each one on lookup from a copy of the fault's own voltage
    profile, so a later write into bus_voltages_pu does not reach it.
    """

    fault_bus: str | None
    fault_current_a: float
    relay_currents: dict[str, float]
    branch_currents: Mapping[str, complex]
    fault_current_c: complex
    bus_voltages_pu: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class _Nodal:
    """One operating state: the limiter resistance and the induction
    multiplier applied, with the bus index, Y and the Norton source
    injections in per-unit, and one tap per branch id, (from index, to
    index, i_base[from] / z), that turns a voltage profile in per-unit
    into the branch's current in amps."""

    index: dict[str, int]
    taps: dict[str, tuple[int, int, complex]]
    ybus: np.ndarray
    injection: np.ndarray


def _nodal(pu: PuNetwork, ufcl_state_ohm: float = 0.0) -> _Nodal:
    index = {b.id: i for i, b in enumerate(pu.net.buses)}
    n = len(index)
    ybus = np.zeros((n, n), dtype=complex)
    injection = np.zeros(n, dtype=complex)

    tie = None if pu.net.ufcl is None else pu.net.ufcl.tie_branch
    if ufcl_state_ohm != 0.0 and tie is None:
        raise ValueError("no tie branch to carry the limiter resistance")

    taps = {}
    for br in pu.net.branches:
        z = pu.branch_z_pu[br.id]
        if br.id == tie and ufcl_state_ohm != 0.0:
            z = z + ufcl_state_ohm / pu.z_base[br.from_bus]
        y = 1.0 / z
        f, t = index[br.from_bus], index[br.to_bus]
        taps[br.id] = (f, t, complex(pu.i_base[br.from_bus] / z))
        ybus[f, f] += y
        ybus[t, t] += y
        ybus[f, t] -= y
        ybus[t, f] -= y

    for s in pu.net.sources:
        z = pu.source_z_pu[s.id]
        if s.kind == "induction_dg":
            z = z * INDUCTION_Z_MULT
        k = index[s.bus]
        ybus[k, k] += 1.0 / z
        injection[k] += s.emf_pu / z

    for l in pu.net.loads:
        ybus[index[l.bus], index[l.bus]] += 1.0 / pu.load_z_pu[l.id]

    return _Nodal(index, taps, ybus, injection)


def build_ybus(net: Network, ufcl_state_ohm: float = 0.0,
               ) -> tuple[np.ndarray, dict[str, int]]:
    """Assemble the nodal admittance matrix (sources as shunt admittances).

    ufcl_state_ohm is added in series with the limiter's tie branch,
    converted to per-unit in the tie's voltage zone. Returns (Y, bus index
    map).
    """
    nodal = _nodal(to_per_unit(net), ufcl_state_ohm)
    return nodal.ybus, nodal.index


class _BranchCurrents(Mapping):
    """Branch id -> complex amps of one voltage profile, each computed on
    lookup from the state's taps; read-only, in net.branches order."""

    __slots__ = ("_taps", "_v")

    def __init__(self, taps: dict[str, tuple[int, int, complex]],
                 v: np.ndarray) -> None:
        self._taps = taps
        self._v = v.tolist()

    def __getitem__(self, branch_id: str) -> complex:
        f, t, s = self._taps[branch_id]
        return (self._v[f] - self._v[t]) * s

    def __iter__(self) -> Iterator[str]:
        return iter(self._taps)

    def __len__(self) -> int:
        return len(self._taps)

    def __repr__(self) -> str:
        return repr(dict(self))


def solve_faults(net: Network, faults: list[FaultSpec],
                 ufcl_state_ohm: float = 0.0) -> list[FaultResult]:
    """Solve faults by Thevenin superposition.

    All faults share one operating state (the limiter at ufcl_state_ohm)
    and so one factorisation of Y: the prefault profile and each fault
    bus's Thevenin column come from the same solve, so load and DG
    contributions are inherently superposed, and the post-fault voltages
    feed every reported current. Results are in the order of faults.
    """
    pu = to_per_unit(net)
    nodal = _nodal(pu, ufcl_state_ohm)
    # one solve of Y against [injections | a unit column per fault bus]:
    # the prefault profile and every Thevenin column share a factorisation
    rhs = np.zeros((len(nodal.index), 1 + len(faults)), dtype=complex)
    rhs[:, 0] = nodal.injection
    for j, fault in enumerate(faults, start=1):
        if fault.bus not in nodal.index:
            raise ValueError(f"unknown fault bus {fault.bus!r}")
        rhs[nodal.index[fault.bus], j] = 1.0
    sol = np.linalg.solve(nodal.ybus, rhs)
    v_pre = sol[:, 0]
    results = []
    for fault, z_col in zip(faults, sol[:, 1:].T):
        k = nodal.index[fault.bus]
        i_f = v_pre[k] / z_col[k]
        v_post = v_pre - i_f * z_col
        branch_currents = _BranchCurrents(nodal.taps, v_post)
        i_f_amps = complex(i_f * pu.i_base[fault.bus])
        # a relay current within the solution's round-off of zero is 0
        floor = 1e-9 * max(1.0, abs(i_f_amps))
        amps = {r.id: abs(branch_currents[r.branch]) for r in net.relays}
        results.append(FaultResult(
            fault_bus=fault.bus,
            fault_current_a=abs(i_f_amps),
            relay_currents={rid: a if a > floor else 0.0
                            for rid, a in amps.items()},
            branch_currents=branch_currents,
            fault_current_c=i_f_amps,
            bus_voltages_pu=v_post))
    return results


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
