"""Unidirectional fault current limiter: state resolution and sizing.

The limiter sits on a tie branch and presents its resistance only to
faults on the grid (upstream) side of the tie; downstream faults see
r_normal, normally zero, so downstream protection is untouched. A study
applies the sized resistance R* from size_ufcl, not the file's r_limit.
Which side a fault is on is purely topological here: switching detection
is assumed ideal.

size_ufcl picks the resistance that restores the upstream short-circuit
level to a target (usually the pre-DG level) within SIZING_TOL, 0.5 %
relative: the fault current at an upstream bus is monotone non-increasing
in R, so a doubling bracket plus bisection lands whenever the target lies
above the tie-open level, and the whole search is deterministic. The
search is one loop with one fault solution per evaluation, capped at
EVALUATION_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .faultcalc import FaultSpec, solve_fault
from .netmodel import Network, UfclSpec, partition_by_tie

__all__ = [
    "UfclSpec", "SizingResult", "SizingError",
    "downstream_buses", "size_ufcl",
]

EVALUATION_CAP = 200
R_HI_SEED = 10.0  # ohms: first resistance of the doubling bracket
SIZING_TOL = 0.005  # relative current error at which sizing stops


class SizingError(RuntimeError):
    """Sizing cannot proceed: target unreachable or evaluation cap hit."""


@dataclass(frozen=True)
class SizingResult:
    r_star: float  # ohms
    achieved_current_a: float
    target_current_a: float
    iterations: int  # fault solutions spent


def downstream_buses(net: Network, ufcl: UfclSpec) -> frozenset:
    """Buses on the limiter's downstream side: the side away from the grid.

    validate checks that ufcl.downstream_end lies on this side.
    """
    return partition_by_tie(net, ufcl.tie_branch)[1]


def size_ufcl(net_with_dg: Network, fault_bus: str,
              target_a: float) -> SizingResult:
    """Resistance restoring the upstream fault level to target_a.

    Evaluates |fault current| with the DG network and the limiter at R,
    first at R=0, then doubling R from R_HI_SEED until the current drops to
    the target, then bisecting. Relative current error <= SIZING_TOL
    terminates. Raises SizingError when the R=0 current is already below
    the target (no resistance can raise a current) or when the evaluation
    budget of 200 fault solutions runs out.
    """
    if (net_with_dg.ufcl is not None
            and fault_bus in downstream_buses(net_with_dg, net_with_dg.ufcl)):
        raise ValueError(
            f"fault bus {fault_bus!r} is downstream of the limiter; "
            f"sizing needs an upstream bus")
    if not target_a > 0:
        raise ValueError(f"target must be positive, got {target_a}")

    # hi stays infinite until some resistance brings the current under
    # the target; until then R doubles from R_HI_SEED with lo held at 0
    lo, hi, r_ohm = 0.0, math.inf, 0.0
    for evals in range(1, EVALUATION_CAP + 1):
        amps = solve_fault(net_with_dg, FaultSpec(fault_bus),
                           ufcl_state_ohm=r_ohm).fault_current_a
        rel_err = (amps - target_a) / target_a
        if abs(rel_err) <= SIZING_TOL:
            return SizingResult(r_ohm, amps, target_a, evals)
        if rel_err < 0 and r_ohm == 0.0:
            raise SizingError(
                f"current at R=0 ({amps:.6g} A) is below the target "
                f"({target_a:.6g} A); added resistance cannot raise it")
        if rel_err < 0:
            hi = r_ohm
        elif hi < math.inf:
            lo = r_ohm
        r_ohm = (0.5 * (lo + hi) if hi < math.inf
                 else 2.0 * r_ohm if r_ohm else R_HI_SEED)
    raise SizingError(f"no convergence within {EVALUATION_CAP} fault "
                      f"solutions (tol {SIZING_TOL})")
