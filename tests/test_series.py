"""Tests for truncated power series and parameterized curves."""

from fractions import Fraction

import pytest

from pentacheck.multipoly import parse_poly
from pentacheck.series import (
    ParamCurve,
    TruncatedSeries,
    TruncationInsufficient,
    ZeroToTruncation,
    series_substitute,
)

T = 16


def S(terms):
    return TruncatedSeries.from_terms(terms, T)


def test_order_and_leading_coefficient():
    s = S([(3, Fraction(5)), (7, Fraction(-1))])
    assert s.order() == (3, Fraction(5))


def test_zero_to_truncation_raises():
    with pytest.raises(ZeroToTruncation):
        TruncatedSeries.zero(T).order()


def test_coefficient_beyond_truncation_raises():
    with pytest.raises(TruncationInsufficient):
        S([(1, Fraction(1))]).coefficient(T + 1)


def test_geometric_series_inverse():
    s = S([(0, Fraction(1)), (1, Fraction(-1))])  # 1 - s
    inv = s.invert_unit()
    assert all(inv.coefficient(k) == 1 for k in range(T + 1))
    assert (s * inv).coefficient(0) == 1
    assert all((s * inv).coefficient(k) == 0 for k in range(1, T + 1))


def test_divide_cancels_order_and_drops_precision():
    num = S([(3, Fraction(2)), (4, Fraction(2))])
    den = S([(1, Fraction(2))])
    q = num.divide(den)
    assert q.order() == (2, Fraction(1))
    assert q.coefficient(3) == 1
    # the top coefficient is zeroed, not invented
    assert q.coefficient(T) == 0


def test_multiplication_truncates_consistently():
    s = S([(9, Fraction(1))])
    assert (s * s).is_zero_to_truncation()  # s^18 is beyond truncation 16


def test_curve_substitution():
    p = parse_poly("x^2 - y", ("x", "y"))
    curve = ParamCurve({"x": [(1, Fraction(1))], "y": [(2, Fraction(1))]}, T)
    assert series_substitute(p, curve).is_zero_to_truncation()


def test_curve_substitution_missing_variable():
    p = parse_poly("x + z", ("x", "z"))
    curve = ParamCurve({"x": [(1, Fraction(1))]}, T)
    with pytest.raises(ValueError):
        series_substitute(p, curve)


def test_reparametrize_scales_coefficients():
    curve = ParamCurve({"x": [(2, Fraction(3))]}, T)
    again = curve.reparametrize(Fraction(2))
    assert again.component("x").coefficient(2) == 12


def test_shift_negative_requires_divisibility():
    s = S([(2, Fraction(1))])
    assert s.shift(-2).order() == (0, Fraction(1))
    with pytest.raises(ValueError):
        S([(0, Fraction(1))]).shift(-1)


def test_integer_constant_inverts_exactly():
    inv = TruncatedSeries.constant(2, T).invert_unit()
    assert inv.coeffs[0] == Fraction(1, 2)
    assert all(isinstance(c, Fraction) for c in inv.coeffs)
    assert (TruncatedSeries.zero(T) + 4).invert_unit() == S([(0, Fraction(1, 4))])
