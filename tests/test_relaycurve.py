import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from protcoord.netmodel import RelaySpec
from protcoord.relaycurve import (CURVE_FAMILIES, CurveConstants,
                                  curve_family, operate_time)


def relay(a=1.0, b=0.0, c=1.0, tds=1.0, pickup=100.0):
    return RelaySpec("r", "br", pickup, tds,
                     CurveConstants(a, b, c))


def test_trivial_inverse_curve():
    # a=1, b=0, c=1, tds=1, M=2 -> 1/(2-1) = 1 s
    assert operate_time(relay(), 200.0) == pytest.approx(1.0, abs=1e-15)


def test_below_pickup_is_no_trip():
    assert operate_time(relay(), 90.0) is None


def test_exactly_at_pickup_is_no_trip():
    assert operate_time(relay(), 100.0) is None


def test_iec_si_against_arbitrary_precision_value():
    # frozen from a 50-digit mpmath evaluation of the closed form at
    # tds=0.4, M=2.8066 with the standard-inverse constants
    r = relay(a=0.14, b=0.0, c=0.02, tds=0.4, pickup=1.0)
    assert operate_time(r, 2.8066) == pytest.approx(2.685343530196877,
                                                    rel=1e-12)


def test_negative_current_rejected():
    with pytest.raises(ValueError):
        operate_time(relay(), -1.0)


def test_family_lookup_is_total():
    for name in CURVE_FAMILIES:
        cv = curve_family(name)
        assert cv.a > 0 and cv.c > 0 and cv.b >= 0
    si = curve_family("iec_standard_inverse")
    assert (si.a, si.b, si.c) == (0.14, 0.0, 0.02)
    ei = curve_family("iec_extremely_inverse")
    assert (ei.a, ei.b, ei.c) == (80.0, 0.0, 2.0)


def test_family_custom_needs_explicit_constants():
    with pytest.raises(ValueError, match="custom"):
        curve_family("custom")


def test_family_unknown_name():
    with pytest.raises(ValueError):
        curve_family("iec_inverse_standard")


curve_a = st.floats(min_value=1e-4, max_value=100.0)
curve_b = st.floats(min_value=0.0, max_value=1.0)
curve_c = st.floats(min_value=0.02, max_value=2.0)
tds_st = st.floats(min_value=0.05, max_value=10.0)


@given(a=curve_a, b=curve_b, c=curve_c, tds=tds_st,
       m=st.floats(min_value=1.01, max_value=50.0),
       up=st.floats(min_value=1.01, max_value=10.0))
def test_time_strictly_decreases_with_current(a, b, c, tds, m, up):
    r = relay(a, b, c, tds, pickup=100.0)
    t1 = operate_time(r, 100.0 * m)
    t2 = operate_time(r, 100.0 * m * up)
    assert t2 < t1


@given(a=curve_a, b=curve_b, c=curve_c, tds=tds_st)
def test_time_diverges_at_pickup(a, b, c, tds):
    r = relay(a, b, c, tds, pickup=100.0)
    at_two = operate_time(r, 200.0)
    for current in (100.0 * (1.0 + 1e-9), math.nextafter(100.0, math.inf)):
        assert operate_time(r, current) > 1e3 * at_two


@pytest.mark.parametrize("cv, pickup, time_s", [
    (curve_family("ieee_very_inverse"), 1e-300, 0.491),  # M**c overflows
    (CurveConstants(0.14, 0.0, 1e-300), 100.0,  # M**c rounds to 1
     0.14 / math.expm1(1e-300 * math.log(10.0))),
    (CurveConstants(1e300, 0.0, 1e-300), 100.0, None),  # beyond float range
], ids=["power_overflows", "power_rounds_to_one", "time_overflows"])
def test_time_at_float_extremes(cv, pickup, time_s):
    r = relay(cv.a, cv.b, cv.c, pickup=pickup)
    assert operate_time(r, 1000.0) == time_s


@given(a=curve_a, b=curve_b, c=curve_c, tds=tds_st,
       m=st.floats(min_value=1.001, max_value=100.0))
def test_time_is_exactly_linear_in_tds(a, b, c, tds, m):
    r1 = relay(a, b, c, tds, pickup=1.0)
    r2 = relay(a, b, c, 2.0 * tds, pickup=1.0)
    assert operate_time(r2, m) == 2.0 * operate_time(r1, m)


@given(a=curve_a, b=curve_b, c=curve_c,
       m=st.floats(min_value=0.0, max_value=1.0))
def test_no_trip_iff_at_or_below_pickup(a, b, c, m):
    r = relay(a, b, c, pickup=100.0)
    assert operate_time(r, 100.0 * m) is None
