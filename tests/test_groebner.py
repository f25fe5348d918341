"""Tests for Buchberger's algorithm and radical membership."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentacheck.groebner import (
    Ideal,
    buchberger,
    normal_form,
    radical_membership,
    same_radical,
)
from pentacheck.multipoly import MultiPoly, parse_poly
from pentacheck.singularity import cusp_family, jacobian_ideal, polar_curve_empty

XYZ = ("x", "y", "z")


def P(text, variables=XYZ):
    return parse_poly(text, variables)


def test_groebner_basis_of_principal_ideal():
    gb = buchberger([P("2*x^2 - 2*y^2")])
    assert len(gb) == 1 and gb[0] == P("x^2 - y^2")


def test_groebner_deterministic_under_permutation():
    gens = [P("x^2 + y"), P("x*y - 1"), P("y^3 + x")]
    assert buchberger(gens) == buchberger(list(reversed(gens)))


def test_ideal_membership():
    ideal = Ideal([P("x^2 + y"), P("x*y - 1")])
    combo = P("x^2 + y") * P("y^2") + P("x*y - 1") * P("x - 3")
    assert ideal.contains(combo)
    assert not ideal.contains(P("x"))


def test_normal_form_is_zero_exactly_on_members():
    basis = buchberger([P("x - y"), P("y^2 - 1")])
    assert normal_form(P("x^2 - 1"), basis).is_zero()
    assert not normal_form(P("x + 1"), basis).is_zero()


def test_unit_ideal_detection():
    assert Ideal([P("x"), P("x + 1")]).is_unit_ideal()
    assert not Ideal([P("x"), P("y")]).is_unit_ideal()


def test_radical_membership_positive():
    # x vanishes on V(x^2)
    ok, cert = radical_membership(P("x"), Ideal([P("x^2")]))
    assert ok
    assert len(cert) == 1 and cert[0].is_constant()


def test_radical_membership_negative():
    ok, _ = radical_membership(P("y"), Ideal([P("x^2")]))
    assert not ok


def test_same_radical_cusp_jacobian():
    f = P("z^2*x - z*y^2 + z*x^3")
    jac = Ideal([f, f.derivative("x"), f.derivative("y"), f.derivative("z")])
    cusp = Ideal([P("z"), P("y^2 - x^3")])
    assert same_radical(jac, cusp)
    assert not same_radical(jac, Ideal([P("z"), P("y")]))


def test_empty_variety_equals_unit_ideal():
    smooth = Ideal([P("1")])
    partials = Ideal([P("1"), P("z")])
    assert same_radical(partials, smooth)


# -- independent oracle: sympy's reduced grevlex basis ------------------


def assert_basis_matches_sympy(sympy, gens, basis):
    """basis equals sympy's monic reduced grevlex basis of gens, as a set."""
    variables = basis[0].vars
    syms = sympy.symbols(variables)
    exprs = [
        sympy.Poly.from_dict(
            {
                e: sympy.Rational(c.numerator, c.denominator)
                for e, c in g.in_vars(variables).terms.items()
            },
            *syms,
            domain=sympy.QQ,
        ).as_expr()
        for g in gens
    ]
    theirs = sympy.groebner(exprs, *syms, order="grevlex", domain=sympy.QQ)
    expected = set()
    for p in theirs.polys:
        lc = Fraction(str(p.LC(order="grevlex")))
        expected.add(frozenset((m, Fraction(str(c)) / lc) for m, c in p.terms()))
    assert len(basis) == len(theirs.polys)
    assert {frozenset(g.terms.items()) for g in basis} == expected


def test_buchberger_matches_sympy_on_cusp_jacobian():
    sympy = pytest.importorskip("sympy")
    gens = jacobian_ideal(cusp_family()).generators
    assert_basis_matches_sympy(sympy, gens, buchberger(gens))


def test_polar_curve_certificate_matches_sympy():
    sympy = pytest.importorskip("sympy")
    F = cusp_family()
    ext = F.vars + ("w_",)
    gens = [F.derivative(v).in_vars(ext) for v in XYZ]
    gens.append(
        MultiPoly.constant(ext, Fraction(1)) - MultiPoly.var(ext, "w_") * F.in_vars(ext)
    )
    certificate = polar_curve_empty(F).certificate
    assert_basis_matches_sympy(sympy, gens, certificate)


monomials = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 3)
small_polys = st.dictionaries(
    monomials, st.integers(-3, 3).filter(bool), min_size=1, max_size=3
).map(lambda terms: MultiPoly(XYZ, {e: Fraction(c) for e, c in terms.items()}))


def test_buchberger_matches_sympy_on_small_ideals():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=20, deadline=None)
    @given(st.lists(small_polys, min_size=1, max_size=3))
    def check(gens):
        assert_basis_matches_sympy(sympy, gens, buchberger(gens))

    check()
