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
search is one loop with one evaluation of the fault level per step,
capped at EVALUATION_CAP.

Three fault solutions are enough for every evaluation. The limiter changes
one branch admittance, a rank-one change of Y (the compensation method;
Sherman-Morrison), so each entry of Y's inverse, the prefault voltage and
hence the complex fault current at a bus is a ratio of two affine
functions of the tie admittance, and that admittance is itself a Moebius
map of R. The fault current is therefore I_f(R) = (a + b R) / (1 + d R),
whose three complex coefficients the solutions at SAMPLE_OHMS fix (a
LevelMap). The search reads that map; one more solution at the accepted
R confirms the read and gives the reported current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .faultcalc import FaultSpec, solve_fault
from .netmodel import Network, UfclSpec, partition_by_tie

__all__ = [
    "UfclSpec", "SizingResult", "SizingError", "LevelMap",
    "downstream_buses", "size_ufcl",
]

EVALUATION_CAP = 200
R_HI_SEED = 10.0  # ohms: first resistance of the doubling bracket
SIZING_TOL = 0.005  # relative current error at which sizing stops
# limiter ohms of the three fault solutions that fix a LevelMap: the
# search's first three resistances, so an answer there reuses its solution
SAMPLE_OHMS = (0.0, R_HI_SEED, 2.0 * R_HI_SEED)
# relative change of the sampled currents below which the level is taken
# not to depend on R: the solutions' round-off, not the limiter
FLAT_TOL = 1e-9


class SizingError(RuntimeError):
    """Sizing failed: the target is out of reach, the evaluation cap was
    hit, or the solution at the accepted resistance misses the target."""


@dataclass(frozen=True)
class SizingResult:
    r_star: float  # ohms
    achieved_current_a: float
    target_current_a: float
    iterations: int  # evaluations of the fault level the search spent


@dataclass(frozen=True)
class LevelMap:
    """Complex fault current at one bus, in amps, against the limiter
    resistance R in ohms: I_f(R) = (a + b R) / (1 + d R)."""

    a: complex
    b: complex
    d: complex

    @classmethod
    def fit(cls, i0: complex, i1: complex, i2: complex) -> LevelMap:
        """The map through the fault currents solved at SAMPLE_OHMS."""
        r1, r2 = SAMPLE_OHMS[1:]
        if max(abs(i1 - i0), abs(i2 - i0)) <= FLAT_TOL * abs(i0):
            return cls(i0, 0j, 0j)
        # I_f(R_k) (1 + d R_k) = a + b R_k gives s_k = b - d I_f(R_k)
        s1, s2 = (i1 - i0) / r1, (i2 - i0) / r2
        d = (s1 - s2) / (i2 - i1)
        return cls(i0, s1 + d * i1, d)

    def amps(self, r_ohm: float) -> float:
        """|I_f(R)|."""
        return abs((self.a + self.b * r_ohm) / (1.0 + self.d * r_ohm))

    def tie_open_a(self) -> float:
        """|I_f| as R grows without bound: the level with the tie open."""
        return abs(self.b / self.d) if self.d else abs(self.a)


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
    terminates. Each evaluation reads the LevelMap fitted to the solutions
    at SAMPLE_OHMS; the result's current is solved at the accepted R.
    Raises SizingError when the R=0 current is already below the target
    (no resistance can raise a current), when the tie-open level is above
    it (no finite resistance lowers the current that far), when the
    evaluation budget of 200 runs out, or when the solution at the
    accepted R misses the target that the read met.
    """
    if (net_with_dg.ufcl is not None
            and fault_bus in downstream_buses(net_with_dg, net_with_dg.ufcl)):
        raise ValueError(
            f"fault bus {fault_bus!r} is downstream of the limiter; "
            f"sizing needs an upstream bus")
    if not target_a > 0:
        raise ValueError(f"target must be positive, got {target_a}")

    solved = {r: solve_fault(net_with_dg, FaultSpec(fault_bus),
                             ufcl_state_ohm=r) for r in SAMPLE_OHMS}
    level = LevelMap.fit(*(res.fault_current_c for res in solved.values()))

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

    achieved = (solved[r_ohm] if r_ohm in solved
                else solve_fault(net_with_dg, FaultSpec(fault_bus),
                                 ufcl_state_ohm=r_ohm)).fault_current_a
    if abs(achieved - target_a) / target_a > SIZING_TOL:
        raise SizingError(
            f"solved current at R={r_ohm:.6g} ohm ({achieved:.6g} A) "
            f"misses the target ({target_a:.6g} A) that the fitted level "
            f"({amps:.6g} A) met")
    return SizingResult(r_ohm, achieved, target_a, evals)
