"""Tests for truncated power series and parameterized curves."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pentacheck.field import AlgebraicNumber
from pentacheck.multipoly import MultiPoly, parse_poly
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


def test_series_is_unhashable():
    with pytest.raises(TypeError):
        hash(TruncatedSeries.constant(2, T))


# -- oracle: the dense coefficient-list algorithms ------------------------
#
# Each series below is compared with a plain list of its T + 1 coefficients
# run through the schoolbook dense algorithms, which touch every slot.


def dense_mul(a, b):
    T = len(a) - 1
    out = [Fraction(0)] * (T + 1)
    for i in range(T + 1):
        for j in range(T + 1 - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def dense_pow(a, n):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(n):
        out = dense_mul(out, a)
    return out


def dense_shift(a, k):
    if k >= 0:
        return ([Fraction(0)] * k + a)[: len(a)]
    if any(a[:-k]):
        raise ValueError("low-order terms")
    return (a[-k:] + [Fraction(0)] * (-k))[: len(a)]


def dense_invert(a):
    T = len(a) - 1
    inv0 = 1 / a[0]
    out = [inv0] + [Fraction(0)] * T
    for k in range(1, T + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc = acc + a[j] * out[k - j]
        out[k] = -inv0 * acc
    return out


def dense_order(a):
    return next(((k, c) for k, c in enumerate(a) if c), None)


def dense_divide(a, b):
    k, _ = dense_order(b)
    q = dense_mul(dense_shift(a, -k), dense_invert(dense_shift(b, -k)))
    return q[: len(a) - k] + [Fraction(0)] * k


def series_of(dense):
    return TruncatedSeries.from_terms(enumerate(dense), len(dense) - 1)


def same(series, dense):
    return len(series.coeffs) == len(dense) and all(
        not (a - b) for a, b in zip(series.coeffs, dense)
    )


rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
algebraic = st.tuples(*[st.integers(-3, 3)] * 4).map(lambda c: AlgebraicNumber(*c))


@st.composite
def dense_lists(draw, T, algebraic_coeffs=False):
    """T + 1 coefficients: mostly nonzero (dense) or a few nonzero (sparse)."""
    coeff = algebraic if algebraic_coeffs else rationals
    if draw(st.booleans()):
        return [draw(coeff) for _ in range(T + 1)]
    out = [Fraction(0)] * (T + 1)
    for k in draw(st.lists(st.integers(0, T), max_size=5)):
        out[k] = draw(coeff)
    return out


@st.composite
def series_pairs(draw):
    T = draw(st.integers(0, 40))
    alg = draw(st.integers(0, 4)) == 0  # algebraic coefficients in some cases
    return T, draw(dense_lists(T, alg)), draw(dense_lists(T, alg))


@settings(max_examples=60, deadline=None)
@given(series_pairs(), st.integers(0, 5))
def test_arithmetic_matches_dense_oracle(pair, n):
    T, a, b = pair
    sa, sb = series_of(a), series_of(b)
    assert same(sa, a)
    assert same(sa + sb, [x + y for x, y in zip(a, b)])
    assert same(sa - sb, [x - y for x, y in zip(a, b)])
    assert same(sa * sb, dense_mul(a, b))
    assert same(sa**n, dense_pow(a, n))
    expected = dense_order(a)
    if expected is None:
        with pytest.raises(ZeroToTruncation):
            sa.order()
    else:
        k, c = sa.order()
        assert k == expected[0] and not (c - expected[1])


@settings(max_examples=60, deadline=None)
@given(series_pairs(), st.integers(-4, 4))
@example((0, [Fraction(0)], [Fraction(0)]), -2)  # shift by more than T + 1
def test_shift_matches_dense_oracle(pair, k):
    _, a, _ = pair
    try:
        expected = dense_shift(a, k)
    except ValueError:
        with pytest.raises(ValueError):
            series_of(a).shift(k)
        return
    assert same(series_of(a).shift(k), expected)


@settings(max_examples=60, deadline=None)
@given(series_pairs(), st.integers(0, 3))
def test_invert_and_divide_match_dense_oracle(pair, k):
    T, a, b = pair
    assume(k <= T)
    b[0] = b[0] or Fraction(1)  # a unit
    assert same(series_of(b).invert_unit(), dense_invert(b))
    num = dense_shift(a, k)  # divisible by s^k
    den = dense_shift(b, k)  # order exactly k
    assert same(series_of(num).divide(series_of(den)), dense_divide(num, den))


# -- oracle: composition through MultiPoly.substitute ---------------------

XYZT = ("x", "y", "z", "t")
exponents = st.tuples(*[st.integers(0, 4)] * 4).filter(lambda e: sum(e) <= 4)
polys_xyzt = st.dictionaries(exponents, rationals.filter(bool), max_size=6).map(
    lambda terms: MultiPoly(XYZT, terms)
)
curve_terms = st.lists(st.tuples(st.integers(0, 3), rationals), max_size=3)


def polynomial_in_s(terms):
    out = MultiPoly(("s",), {})
    for k, c in terms:
        out = out + MultiPoly(("s",), {(k,): c})
    return out


@settings(max_examples=60, deadline=None)
@given(
    polys_xyzt,
    st.fixed_dictionaries({v: curve_terms for v in XYZT}),
    st.integers(0, 20),
)
def test_series_substitute_matches_polynomial_composition(p, terms, T):
    composed = p.substitute({v: polynomial_in_s(ts) for v, ts in terms.items()})
    expected = [Fraction(0)] * (T + 1)
    for e, c in composed.terms.items():
        power = dict(zip(composed.vars, e)).get("s", 0)
        assert sum(e) == power  # nothing but s is left
        if power <= T:
            expected[power] = expected[power] + c
    assert same(series_substitute(p, ParamCurve(terms, T)), expected)
