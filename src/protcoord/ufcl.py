"""Unidirectional fault current limiter: state resolution and sizing.

The limiter sits on a tie branch and presents its resistance only to
faults on the grid (upstream) side of the tie; downstream faults see
r_normal, normally zero, so downstream protection is untouched. A study
applies the sized resistance R* from size_ufcl; the file records no
limiter resistance. Which side a fault is on is purely topological here,
the side of the tie away from the grid: switching detection is assumed
ideal.

size_ufcl picks the resistance that restores the upstream short-circuit
level to its pre-DG value within SIZING_TOL, 0.5 % relative. It works
out that target itself: the recorded sizing_reference_a at the designated
sizing_fault_bus, and at any other bus the bare-grid level (infinite_grid
sources only, LimiterStates.grid_level), read from the solve the search
reads. The fault current at an upstream bus is monotone non-increasing in
R, so a doubling bracket plus bisection lands whenever the target lies
above the tie-open level, and the whole search is deterministic. The
search is one loop with one evaluation of the fault level per step,
capped at EVALUATION_CAP.

No evaluation solves the network. The limiter changes one branch
admittance, a rank-one change of Y, so the fault current at a bus is
I_f(R) = (a + b R) / (1 + d R), and faultcalc.LimiterStates gives that
LevelMap in closed form from the one factorisation a study already makes.
The search reads the map; one fault solution at the accepted R
(solve_fault) checks the read and gives the reported current. Like every
production read at a limiter resistance, it factorises Y at R = 0 and
reads R by the compensation update, so it gives the bits of the study's
own table at the sizing bus. That confirm solves a copy of the network
without relays, and so without the pairs that name them: relays stamp
nothing into Y or the injections, so its fault current is the full
network's, bit for bit, and it substitutes the injections and the tie's
column only, no relay branch's.

Which side of the tie a bus lies on needs a partition of the graph
(downstream_buses). A study partitions once and passes size_ufcl its
states; size_ufcl partitions only when it builds its own states, called
alone, to reject a downstream fault bus. It builds them first, so a
network that repeats an id or names what it lacks is refused there, in
validate's words, as on every other route.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .faultcalc import FaultSpec, LimiterStates, solve_fault
from .netmodel import Network, partition_by_tie

__all__ = [
    "SizingResult", "SizingError", "downstream_buses", "size_ufcl",
]

EVALUATION_CAP = 200
R_HI_SEED = 10.0  # ohms: first resistance of the doubling bracket
SIZING_TOL = 0.005  # relative current error at which sizing stops


class SizingError(RuntimeError):
    """Sizing failed: the target is out of reach, the evaluation cap was
    hit, or the solution at the accepted resistance misses the target."""


class SizingResult(NamedTuple):
    r_star: float  # ohms
    achieved_current_a: float
    target_current_a: float
    iterations: int  # evaluations of the fault level the search spent


def downstream_buses(net: Network) -> frozenset:
    """Buses on net.ufcl's downstream side: the side of the tie away from
    the infinite_grid source, the one place the limiter's direction is
    decided."""
    return partition_by_tie(net, net.ufcl.tie_branch)[1]


def size_ufcl(net_with_dg: Network, fault_bus: str, *,
              states: LimiterStates | None = None) -> SizingResult:
    """Resistance restoring the upstream fault level at fault_bus to its
    pre-DG value.

    fault_bus must lie upstream of the limiter. When states is not given,
    size_ufcl builds them, which refuses a repeated id or a dangling
    reference in validate's words (netmodel.to_per_unit), and then
    partitions the network to check the bus, raising ValueError for a
    downstream one; a caller that passes states has made that check
    itself. The target is
    net_with_dg.ufcl.sizing_reference_a when fault_bus is the designated
    sizing_fault_bus and a reference is recorded, else the bare-grid level
    at fault_bus, states.grid_level; a target that is not > 0 raises
    ValueError. Evaluates |fault current| with the DG network
    and the limiter at R, first at R=0, then doubling R from R_HI_SEED
    until the current drops to the target, then bisecting. Relative
    current error <= SIZING_TOL terminates. Each evaluation reads the
    LevelMap of states, the limiter states of net_with_dg (built here
    when not given); the result's current is solve_fault's at the
    accepted R, on a copy of net_with_dg without relays or pairs, the
    bits that states.solve reads there. Raises SizingError when the R=0
    current is already below the target (no resistance can raise a
    current), when the tie-open level is above it (no finite resistance
    lowers the current that far), when the evaluation budget of 200 runs
    out, or when the solution at the accepted R misses the target that
    the read met.
    """
    u = net_with_dg.ufcl
    if states is None:
        states = LimiterStates(net_with_dg)
        if u is not None and fault_bus in downstream_buses(net_with_dg):
            raise ValueError(
                f"fault bus {fault_bus!r} is downstream of the limiter; "
                f"sizing needs an upstream bus")
    target_a = (u.sizing_reference_a if u is not None
                and u.sizing_reference_a is not None
                and fault_bus == u.sizing_fault_bus
                else states.grid_level(fault_bus))
    if not target_a > 0:
        raise ValueError(f"target must be positive, got {target_a}")
    level = states.level(fault_bus)

    # hi stays infinite until some resistance brings the current under
    # the target; until then R doubles from R_HI_SEED with lo held at 0
    lo, hi, r_ohm = 0.0, math.inf, 0.0
    for evals in range(1, EVALUATION_CAP + 1):
        amps = level.amps(r_ohm)
        rel_err = (amps - target_a) / target_a
        if abs(rel_err) <= SIZING_TOL:
            break
        if r_ohm == 0.0:
            if rel_err < 0:
                raise SizingError(
                    f"current at R=0 ({amps:.6g} A) is below the target "
                    f"({target_a:.6g} A); added resistance cannot raise it")
            if level.tie_open_a() >= target_a * (1.0 + SIZING_TOL):
                raise SizingError(
                    f"current with the tie open ({level.tie_open_a():.6g} "
                    f"A) is above the target ({target_a:.6g} A); no "
                    f"finite resistance lowers it that far")
        if rel_err < 0:
            hi = r_ohm
        elif hi < math.inf:
            lo = r_ohm
        r_ohm = (0.5 * (lo + hi) if hi < math.inf
                 else 2.0 * r_ohm if r_ohm else R_HI_SEED)
    else:
        raise SizingError(f"no convergence within {EVALUATION_CAP} "
                          f"evaluations (tol {SIZING_TOL})")

    # relays stamp nothing into Y: without them (and the pairs that name
    # them) the confirm reads the same fault current and substitutes no
    # relay branch's column
    achieved = solve_fault(net_with_dg._replace(relays=(), pairs=()),
                           FaultSpec(fault_bus),
                           ufcl_state_ohm=r_ohm).fault_current_a
    if abs(achieved - target_a) / target_a > SIZING_TOL:
        raise SizingError(
            f"solved current at R={r_ohm:.6g} ohm ({achieved:.6g} A) "
            f"misses the target ({target_a:.6g} A) that the level map "
            f"({amps:.6g} A) met")
    return SizingResult(r_ohm, achieved, target_a, evals)
