"""Inverse-time overcurrent characteristic evaluation.

The operating time of a relay carrying current I with pickup Ip is

    t = tds * (b + a / (M**c - 1)),    M = I / Ip

for M > 1; at or below pickup the relay does not operate. The constants
(a, b, c) select the curve shape; published IEC 60255 and IEEE C37.112
families are available by name, and arbitrary constants via "custom".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CurveConstants",
    "curve_family",
    "operate_time",
    "CURVE_FAMILIES",
]


@dataclass(frozen=True)
class CurveConstants:
    """Constants (a, b, c) of the inverse-time characteristic."""

    a: float
    b: float
    c: float


# Published constant triples. IEC 60255-151 and IEEE C37.112, cross-checked
# against two independent references before freezing here.
CURVE_FAMILIES: dict[str, CurveConstants] = {
    "iec_standard_inverse": CurveConstants(0.14, 0.0, 0.02),
    "iec_very_inverse": CurveConstants(13.5, 0.0, 1.0),
    "iec_extremely_inverse": CurveConstants(80.0, 0.0, 2.0),
    "ieee_moderately_inverse": CurveConstants(0.0515, 0.114, 0.02),
    "ieee_very_inverse": CurveConstants(19.61, 0.491, 2.0),
    "ieee_extremely_inverse": CurveConstants(28.2, 0.1217, 2.0),
}


def curve_family(name: str) -> CurveConstants:
    """Look up a named curve family.

    "custom" is a valid family name in network files but carries no
    constants of its own; asking for it here is an error.
    """
    if name == "custom":
        raise ValueError("curve family 'custom' requires explicit a, b, c")
    try:
        return CURVE_FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown curve family {name!r}") from None


def operate_time(relay, current_a: float) -> float | None:
    """Evaluate a relay's operating time at the given RMS current.

    Parameters
    ----------
    relay : RelaySpec
        Needs pickup_a, tds and curve (a, b, c) fields.
    current_a : float
        RMS current in amperes, >= 0.

    Returns
    -------
    float or None
        The operate time in seconds; None (no trip) when M = current/pickup
        <= 1, including exactly at pickup where the characteristic is
        singular, and when the time is too large for a float. Never raises
        for M > 1 and finite settings.
    """
    if current_a < 0:
        raise ValueError(f"current must be >= 0, got {current_a}")
    m = current_a / relay.pickup_a
    if m <= 1.0:
        return None
    cv = relay.curve
    try:
        # just above pickup M**c rounds to 1, and expm1 keeps the digits
        rise = m**cv.c - 1.0 or math.expm1(cv.c * math.log(m))
    except OverflowError:  # M**c beyond the float range: the a-term is 0
        rise = math.inf
    t = relay.tds * (cv.b + cv.a / rise) if rise else math.inf
    return t if math.isfinite(t) else None
