"""Tests for the quartic field Q(alpha), alpha = sqrt(10 + 2*sqrt(5))."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentacheck.field import (
    AlgebraicNumber,
    eval_poly,
    galois_group,
    galois_orbit,
    minimal_polynomial,
    real_value,
    solve_linear,
    to_float,
)

A = AlgebraicNumber

small_fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
numbers = st.builds(
    lambda a, b, c, d: A(a, b, c, d),
    small_fracs, small_fracs, small_fracs, small_fracs,
)
big_ints = st.integers(min_value=-(10**30), max_value=10**30)
big_dens = st.integers(min_value=1, max_value=10**30)
big_fracs = st.builds(Fraction, big_ints, big_dens)
big_coords = st.tuples(big_fracs, big_fracs, big_fracs, big_fracs)


# -- reference arithmetic on rational coordinate 4-tuples -------------------
# Schoolbook products, a Gaussian solve and power accumulation, independent
# of the integer representation, the norm inverse and the Galois matrices.


def ref_mul(a, b):
    prod = [Fraction(0)] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    # alpha^4 = 20*alpha^2 - 80
    for k in range(6, 3, -1):
        prod[k - 2] += 20 * prod[k]
        prod[k - 4] -= 80 * prod[k]
    return tuple(prod[:4])


def ref_inverse(a):
    units = [tuple(Fraction(int(i == k)) for i in range(4)) for k in range(4)]
    cols = [ref_mul(a, e) for e in units]
    rows = [[cols[k][i] for k in range(4)] for i in range(4)]
    return tuple(solve_linear(rows, list(units[0])))


def ref_apply(image, a):
    acc = (Fraction(0),) * 4
    power = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for c in a:
        acc = tuple(x + c * y for x, y in zip(acc, power))
        power = ref_mul(power, image)
    return acc


def in_lowest_terms(x):
    return x.den > 0 and gcd(*x.num, x.den) == 1


def test_alpha_satisfies_minimal_polynomial():
    a = A.alpha()
    assert a**4 - a**2 * 20 + 80 == A.from_rational(0)


def test_minimal_polynomial_of_alpha():
    mp = minimal_polynomial(A.alpha())
    assert mp == [Fraction(80), Fraction(0), Fraction(-20), Fraction(0), Fraction(1)]


def test_sqrt5_squares_to_five():
    s = A.sqrt5()
    assert s * s == A.from_rational(5)
    assert s == (A.alpha() ** 2 - 10) / 2


def test_beta_matches_its_definition():
    b = A.beta()
    assert b * b == 10 - 2 * A.sqrt5()
    assert A.alpha() * b == 4 * A.sqrt5()
    alpha = A.alpha().coords
    two_alpha2_minus_20 = (Fraction(-20), Fraction(0), Fraction(2), Fraction(0))
    assert b.coords == ref_mul(two_alpha2_minus_20, ref_inverse(alpha))


def test_rationality_detection():
    assert A.from_rational(Fraction(3, 7)).is_rational
    assert A.from_rational(Fraction(3, 7)).rational_value() == Fraction(3, 7)
    assert not A.alpha().is_rational
    assert A.sqrt5().is_rational is False


def test_galois_group_order_four_and_closed():
    G = galois_group()
    assert len(G) == 4
    images = {tuple(g.image_of_alpha.coords) for g in G}
    assert len(images) == 4
    mp = minimal_polynomial(A.alpha())
    for g in G:
        assert not eval_poly(mp, g.image_of_alpha)
        for h in G:
            comp = g.apply(h.image_of_alpha)
            assert tuple(comp.coords) in images


def test_galois_orbit_of_alpha_has_four_elements():
    assert len({tuple(x.coords) for x in galois_orbit(A.alpha())}) == 4


def test_identity_element_present():
    names = {g.name for g in galois_group()}
    assert names == {"sigma0", "sigma1", "sigma2", "sigma3"}
    sigma0 = galois_group()[0]
    assert sigma0.apply(A.alpha()) == A.alpha()


@settings(max_examples=60, deadline=None)
@given(numbers, numbers)
def test_field_homomorphism_property(a, b):
    for g in galois_group():
        assert g.apply(a * b) == g.apply(a) * g.apply(b)
        assert g.apply(a + b) == g.apply(a) + g.apply(b)


@settings(max_examples=60, deadline=None)
@given(numbers)
def test_inverse_multiplies_to_one(a):
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == A.from_rational(1)


@settings(max_examples=60, deadline=None)
@given(big_coords, big_coords)
def test_mul_matches_schoolbook_oracle(a, b):
    prod = A(*a) * A(*b)
    assert prod.coords == ref_mul(a, b)
    assert in_lowest_terms(prod)


@settings(max_examples=40, deadline=None)
@given(big_coords)
def test_inverse_matches_gaussian_oracle(a):
    x = A(*a)
    if not x:
        return
    inv = x.inverse()
    assert inv.coords == ref_inverse(a)
    assert in_lowest_terms(inv)


@settings(max_examples=40, deadline=None)
@given(big_coords)
def test_galois_apply_matches_power_accumulation(a):
    for g in galois_group():
        image = g.apply(A(*a))
        assert image.coords == ref_apply(g.image_of_alpha.coords, a)
        assert in_lowest_terms(image)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(big_ints, big_ints, big_ints, big_ints),
    big_dens,
    st.integers(min_value=1, max_value=10**6),
)
def test_common_factors_cancel(nums, den, factor):
    built = A(*(n * factor for n in nums)) / (den * factor)
    direct = A(*(Fraction(n, den) for n in nums))
    assert built.coords == tuple(Fraction(n, den) for n in nums)
    assert in_lowest_terms(built)
    assert built == direct
    assert hash(built) == hash(direct)
    assert built.to_json() == direct.to_json()


@settings(max_examples=40, deadline=None)
@given(big_coords, big_coords)
def test_equal_values_built_differently_agree(a, b):
    x, y = A(*a), A(*b)
    variants = [
        x,
        (x + y) - y,
        -(-x),
        A.from_json(x.to_json()),
        galois_group()[0].apply(x),
        galois_group()[1].apply(galois_group()[1].apply(x)),
    ]
    if y:
        variants.append((x * y) / y)
    for v in variants:
        assert v == x
        assert v.coords == x.coords
        assert v.to_json() == x.to_json()
        assert hash(v) == hash(x)


def test_galois_fixes_exactly_the_rationals():
    a = A.alpha()
    fixed = [g for g in galois_group() if g.apply(a) == a]
    assert len(fixed) == 1  # only the identity moves nothing


def test_solve_linear_two_by_two():
    a = A.alpha()
    rows = [[a, A.from_rational(1)], [A.from_rational(1), a]]
    rhs = [a * a + 1, a + a]
    x = solve_linear(rows, rhs)
    assert rows[0][0] * x[0] + rows[0][1] * x[1] == rhs[0]
    assert rows[1][0] * x[0] + rows[1][1] * x[1] == rhs[1]


def test_real_value_brackets_alpha():
    iv = real_value(A.alpha(), 12)
    assert iv.width <= Fraction(1, 10**12)
    assert abs(to_float(A.alpha()) - 3.8042260651806146) < 1e-9


def test_json_round_trip():
    a = A(Fraction(1, 2), -3, Fraction(5, 7), 0)
    assert A.from_json(a.to_json()) == a
