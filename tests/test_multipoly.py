"""Tests for the sparse multivariate polynomial engine."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentacheck.field import AlgebraicNumber
from pentacheck.multipoly import (
    MultiPoly,
    content_free,
    discriminant,
    exact_div,
    format_poly,
    parse_poly,
    resultant,
    sylvester_resultant,
)

XY = ("x", "y")


def P(text, variables=XY):
    return parse_poly(text, variables)


def test_parse_format_round_trip():
    p = P("3*x^2*y - 1/2*y^3 + 7")
    assert parse_poly(format_poly(p), XY) == p


def test_arithmetic_ring_axioms_spot():
    p, q, r = P("x + y"), P("x - y"), P("x*y + 2")
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()
    assert p * q == P("x^2 - y^2")


def test_resultant_known_sign():
    # Res_z(z^2 - u, 2z) = -4u: the Sylvester determinant fixes the sign
    uz = ("u", "z")
    r = resultant(P("z^2 - u", uz), P("2*z", uz), "z")
    assert r == P("-4*u", uz)


def test_resultant_detects_common_factor():
    uz = ("u", "z")
    # common factor z - u: resultant vanishes identically
    assert resultant(P("z^2 - u^2", uz), P("z - u", uz), "z").is_zero()
    # no common root: Res_z(z^2 - u^2, z - 2u) = 3u^2
    assert resultant(P("z^2 - u^2", uz), P("z - 2*u", uz), "z") == P("3*u^2", uz)


def test_discriminant_of_quadratic():
    abz = ("a", "b", "z")
    d = discriminant(P("z^2 + a*z + b", abz), "z")
    assert content_free(d).monic() == content_free(P("a^2 - 4*b", abz)).monic()


coeffs = st.integers(min_value=-4, max_value=4)


def random_poly(draw, max_deg=3):
    terms = {}
    n = draw(st.integers(min_value=1, max_value=5))
    for _ in range(n):
        e = (
            draw(st.integers(min_value=0, max_value=max_deg)),
            draw(st.integers(min_value=0, max_value=max_deg)),
        )
        c = draw(coeffs)
        if c:
            terms[e] = terms.get(e, 0) + Fraction(c)
    return MultiPoly(XY, {e: c for e, c in terms.items() if c})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subresultant_matches_sylvester_oracle(data):
    p = random_poly(data.draw)
    q = random_poly(data.draw)
    if p.is_zero() or q.is_zero():
        return
    if p.degree_in("y") == 0 or q.degree_in("y") == 0:
        return
    assert resultant(p, q, "y") == sylvester_resultant(p, q, "y")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_resultant_multiplicative_in_first_argument(data):
    p = random_poly(data.draw)
    q = random_poly(data.draw)
    r = random_poly(data.draw)
    if any(f.is_zero() or f.degree_in("y") == 0 for f in (p, q, r)):
        return
    lhs = resultant(p * q, r, "y")
    rhs = resultant(p, r, "y") * resultant(q, r, "y")
    assert lhs == rhs


def test_exact_div_and_failure():
    p = P("x^2 - y^2")
    assert exact_div(p, P("x - y")) == P("x + y")
    with pytest.raises(ValueError):
        exact_div(P("x^2 + 1"), P("x - y"))


def test_translate_moves_point_to_origin():
    p = P("x^2 + y^2 - 2")
    q = p.translate({"x": Fraction(1), "y": Fraction(1)})
    assert q.evaluate({"x": Fraction(0), "y": Fraction(0)}) == 0


def test_substitute_composes():
    p = P("x^2 + y")
    q = p.substitute({"x": P("y + 1")})
    assert q.in_vars(XY) == P("y^2 + 3*y + 1")


def test_initial_form_grading():
    p = parse_poly("z^2*x - z*y^2 + z*x^3", ("x", "y", "z"))
    assert p.initial_form(("x", "y", "z")) == parse_poly(
        "z^2*x - z*y^2", ("x", "y", "z")
    )


def test_algebraic_coefficients_supported():
    a = AlgebraicNumber.alpha()
    p = MultiPoly(XY, {(1, 0): a, (0, 0): Fraction(1)})
    q = p * p
    assert q.terms[(2, 0)] == a * a
    assert not p.has_rational_coeffs()


def test_content_free_primitive():
    p = P("4*x^2 - 8*y")
    c = content_free(p)
    assert c == P("x^2 - 2*y") or c == P("-x^2 + 2*y")


def test_integer_constants_divide_exactly():
    two = MultiPoly.constant(XY, 2)
    assert two.monic().terms == {(0, 0): Fraction(1)}
    assert P("x + 1") * 2 + 3 == P("2*x + 5")
    quot = exact_div(P("4*x"), two)
    assert quot == P("2*x")
    assert all(isinstance(c, Fraction) for c in quot.terms.values())


# -- independent oracle: sympy's resultant --------------------------------


def to_sympy(sympy, p):
    syms = sympy.symbols(p.vars)
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
        *syms,
        domain=sympy.QQ,
    ).as_expr()


def test_resultant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols(XY)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def check(data):
        p = random_poly(data.draw)
        q = random_poly(data.draw)
        if any(f.is_zero() or f.degree_in("y") == 0 for f in (p, q)):
            return
        dp, dq = p.degree_in("y"), q.degree_in("y")
        # sympy returns Res(q, p) = (-1)^(dp*dq) Res(p, q) when dp < dq
        sign = (-1) ** (dp * dq) if dp < dq else 1
        res = sympy.resultant(to_sympy(sympy, p), to_sympy(sympy, q), y)
        theirs = sympy.Poly(sign * res, x, y)
        expected = {e: Fraction(str(c)) for e, c in theirs.terms() if c}
        assert resultant(p, q, "y").terms == expected

    check()
