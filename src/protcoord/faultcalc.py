"""Balanced three-phase fault and steady-state solutions.

Single-phase positive-sequence nodal model: every source is an EMF behind
its internal impedance, loads are constant shunt impedances, and a fault
is a three-phase short circuit at a bus through zero fault impedance,
solved by superposition on the nodal admittance matrix. Relay currents
come straight out of the post-fault voltage profile; there is no separate
load-flow overlay. The limiter resistance (ufcl_state_ohm) is an argument
of the fault solvers only; steady_state and thevenin_at see the network
without it.

oracle_solve is a deliberately separate second route (explicit EMF nodes,
source-current unknowns, dense inversion) used by the test suite to check
solve_fault. The two routes share the per-unit conversion and the result
record, FaultResult, and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netmodel import Network, PuNetwork, to_per_unit

__all__ = [
    "FaultSpec", "FaultResult",
    "build_ybus", "steady_state", "solve_fault", "solve_faults",
    "thevenin_at", "oracle_solve",
]

# induction machines present a slightly larger transient impedance than an
# equally rated synchronous unit; read at call time by both solution routes
INDUCTION_Z_MULT = 1.05

ORACLE_BUS_LIMIT = 12


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
    """

    fault_bus: str | None
    fault_current_a: float
    relay_currents: dict[str, float]
    branch_currents: dict[str, complex]
    fault_current_c: complex
    bus_voltages_pu: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class _Nodal:
    """One operating state: the limiter resistance and the induction
    multiplier applied, with the bus index, the effective branch
    impedances, Y and the Norton source injections, all in per-unit."""

    pu: PuNetwork
    index: dict[str, int]
    branch_z: dict[str, complex]
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

    branch_z = {}
    for br in pu.net.branches:
        z = pu.branch_z_pu[br.id]
        if br.id == tie and ufcl_state_ohm != 0.0:
            z = z + ufcl_state_ohm / pu.z_base[br.from_bus]
        branch_z[br.id] = z
        y = 1.0 / z
        f, t = index[br.from_bus], index[br.to_bus]
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

    return _Nodal(pu, index, branch_z, ybus, injection)


def build_ybus(pu: PuNetwork, ufcl_state_ohm: float = 0.0,
               ) -> tuple[np.ndarray, dict[str, int]]:
    """Assemble the nodal admittance matrix (sources as shunt admittances).

    ufcl_state_ohm is added in series with the limiter's tie branch,
    converted to per-unit in the tie's voltage zone. Returns (Y, bus index
    map).
    """
    nodal = _nodal(pu, ufcl_state_ohm)
    return nodal.ybus, nodal.index


def _solve(nodal: _Nodal, buses: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Prefault voltages and the Thevenin column of each bus, in per-unit.

    One solve of Y against [injections | a unit column per bus], so every
    fault of one operating state shares a single factorisation.
    """
    for bus in buses:
        if bus not in nodal.index:
            raise ValueError(f"unknown fault bus {bus!r}")
    rhs = np.zeros((len(nodal.index), 1 + len(buses)), dtype=complex)
    rhs[:, 0] = nodal.injection
    for j, bus in enumerate(buses, start=1):
        rhs[nodal.index[bus], j] = 1.0
    sol = np.linalg.solve(nodal.ybus, rhs)
    return sol[:, 0], sol[:, 1:]


def _branch_currents_a(nodal: _Nodal, v: np.ndarray) -> dict[str, complex]:
    pu, index = nodal.pu, nodal.index
    out = {}
    for br in pu.net.branches:
        z = nodal.branch_z[br.id]
        i_pu = (v[index[br.from_bus]] - v[index[br.to_bus]]) / z
        out[br.id] = complex(i_pu * pu.i_base[br.from_bus])
    return out


def steady_state(net: Network) -> dict[str, complex]:
    """Branch currents (complex amps, from-side base) with no fault applied."""
    nodal = _nodal(to_per_unit(net))
    return _branch_currents_a(nodal, _solve(nodal, [])[0])


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
    v_pre, z_cols = _solve(nodal, [f.bus for f in faults])
    results = []
    for fault, z_col in zip(faults, z_cols.T):
        k = nodal.index[fault.bus]
        i_f = v_pre[k] / z_col[k]
        v_post = v_pre - i_f * z_col
        branch_currents = _branch_currents_a(nodal, v_post)
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


def thevenin_at(pu: PuNetwork, bus: str) -> complex:
    """Driving-point impedance at a bus in per-unit (EMFs shorted)."""
    nodal = _nodal(pu)
    return complex(_solve(nodal, [bus])[1][nodal.index[bus], 0])


def oracle_solve(net: Network, fault: FaultSpec | None,
                 ufcl_state_ohm: float = 0.0) -> FaultResult:
    """Second, independent solution route for small networks.

    Formulates the circuit with an explicit EMF node per source and the
    source currents as unknowns; the fault is a zero-volt constraint
    row whose current unknown is the fault current. Solved by dense
    inversion. Kept small and slow on purpose: it exists to disagree with
    solve_fault if either route is wrong.
    """
    if len(net.buses) > ORACLE_BUS_LIMIT:
        raise ValueError(
            f"oracle_solve handles at most {ORACLE_BUS_LIMIT} buses")

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
