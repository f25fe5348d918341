"""Tests for the pentagon arrangements and the Galois action on them."""

import dataclasses
from fractions import Fraction

import pytest

from pentacheck.arrangement import (
    VARIANTS,
    _validate_equivariant,
    _validate_labeling,
    build_arrangement,
    cross_ratio,
    defining_polynomial,
    galois_invariance,
    galois_line_action_permutes,
    incidence_automorphisms,
    intersect,
    line_weight_profile,
)
from pentacheck.field import galois_group, minimal_polynomial


def test_aprime_lattice_statistics():
    arr = build_arrangement("APRIME")
    assert len(arr.lines) == 10
    assert len(arr.lattice) == 18
    assert len(arr.points_at_infinity()) == 1
    assert arr.weight_histogram() == {4: 3, 3: 6, 2: 9}


def test_aprime_weight_four_points_are_E_H_I():
    arr = build_arrangement("APRIME")
    labels = sorted(p.label for p in arr.lattice if p.weight == 4)
    assert labels == ["E", "H", "I"]


def test_aprime_unique_deficient_lines():
    arr = build_arrangement("APRIME")
    missing = {2: [], 3: [], 4: []}
    for lab, _ in arr.lines:
        profile = line_weight_profile(arr, lab)
        for w in (2, 3, 4):
            if w not in profile:
                missing[w].append(lab)
    assert all(len(v) == 1 for v in missing.values())


def test_cprime_lattice_statistics():
    arr = build_arrangement("CPRIME")
    assert len(arr.lines) == 9
    assert len(arr.lattice) == 15
    assert arr.weight_histogram() == {4: 1, 3: 8, 2: 6}
    assert len(arr.points_at_infinity()) == 0


def test_variant_c_matches_cprime_combinatorics():
    assert (
        build_arrangement("C").weight_histogram()
        == build_arrangement("CPRIME").weight_histogram()
    )


def test_rational10_adds_the_line_jk():
    arr = build_arrangement("RATIONAL10")
    assert len(arr.lines) == 10
    assert "JK" in [lab for lab, _ in arr.lines]


def test_unknown_variant_rejected():
    with pytest.raises((KeyError, ValueError)):
        build_arrangement("NOPE")


def test_cprime_defining_polynomial_rational_degree_nine():
    phi = defining_polynomial(build_arrangement("CPRIME"))
    assert phi.total_degree() == 9
    assert phi.has_rational_coeffs()


def test_rational10_defining_polynomial_rational_degree_ten():
    phi = defining_polynomial(build_arrangement("RATIONAL10"))
    assert phi.total_degree() == 10
    assert phi.has_rational_coeffs()


def test_aprime_defining_polynomial_not_rational():
    phi = defining_polynomial(build_arrangement("APRIME"))
    rep = galois_invariance(phi)
    assert not rep.is_rational
    assert rep.violating_sigma is not None
    assert rep.differing_monomial is not None


def test_galois_permutes_the_stable_arrangements():
    for variant in ("CPRIME", "RATIONAL10"):
        arr = build_arrangement(variant)
        for sigma in galois_group():
            assert galois_line_action_permutes(arr, sigma)


def test_galois_moves_aprime_lines():
    arr = build_arrangement("APRIME")
    moved = [
        sigma.name
        for sigma in galois_group()
        if not galois_line_action_permutes(arr, sigma)
    ]
    assert moved  # at least one automorphism breaks the configuration


def test_pencil_cross_ratio_is_irrational():
    arr = build_arrangement("APRIME")
    lam = cross_ratio([arr.line(l) for l in ("AI", "BI", "CI", "DI")])
    mp = minimal_polynomial(lam)
    assert len(mp) - 1 == 2
    # lambda^2 - 3*lambda + 1 = 0: the golden-ratio cross-ratio
    assert [c / mp[-1] for c in mp] == [1, -3, 1]


def test_cross_ratio_agrees_between_realizations():
    a = build_arrangement("APRIME")
    c = build_arrangement("CPRIME")
    lam_a = cross_ratio([a.line(l) for l in ("AI", "BI", "CI", "DI")])
    lam_c = cross_ratio([c.line(l) for l in ("AI", "BI", "CI", "DI")])
    assert minimal_polynomial(lam_a) == minimal_polynomial(lam_c)


def direction_cross_ratio(lines):
    """Oracle: cross-ratio of the directions (v, -u) of lines uX + vY + wZ = 0."""
    d = [(l.coords[1], -l.coords[0]) for l in lines]
    det = lambda i, j: d[i][0] * d[j][1] - d[i][1] * d[j][0]
    return det(0, 2) * det(1, 3) / (det(0, 3) * det(1, 2))


@pytest.mark.parametrize(
    "variant, labels",
    [
        ("APRIME", ("AI", "BI", "CI", "DI")),
        ("CPRIME", ("AI", "BI", "CI", "DI")),
        ("C", ("EI", "FI", "HI", "GI")),
    ],
)
def test_cross_ratio_matches_direction_oracle(variant, labels):
    arr = build_arrangement(variant)
    lines = [arr.line(l) for l in labels]
    assert intersect(lines[0], lines[1]).is_affine  # the oracle needs this
    assert not (cross_ratio(lines) - direction_cross_ratio(lines))


def test_cross_ratio_minimal_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    arr = build_arrangement("APRIME")
    lam = cross_ratio([arr.line(l) for l in ("AI", "BI", "CI", "DI")])
    # alpha^2 = 10 + 2*sqrt(5): the same element written in sqrt(5) and alpha
    sqrt5 = sympy.sqrt(5)
    alpha = sympy.sqrt(10 + 2 * sqrt5)
    c0, c1, c2, c3 = (sympy.Rational(c.numerator, c.denominator) for c in lam.coords)
    element = c0 + c1 * alpha + (c2 + c3 * alpha) * (10 + 2 * sqrt5)
    X = sympy.Symbol("X")
    theirs = sympy.Poly(sympy.minimal_polynomial(element, X), X).monic()
    expected = [Fraction(str(c)) for c in reversed(theirs.all_coeffs())]
    assert minimal_polynomial(lam) == expected


def test_aprime_is_incidence_rigid():
    autos = incidence_automorphisms(build_arrangement("APRIME"))
    assert len(autos) == 1


def test_cprime_has_cyclic_symmetry_of_order_four():
    autos = incidence_automorphisms(build_arrangement("CPRIME"))
    assert len(autos) == 4


def test_arrangements_are_built_once_and_frozen():
    arr = build_arrangement("APRIME")
    assert build_arrangement("APRIME") is arr
    with pytest.raises(dataclasses.FrozenInstanceError):
        arr.lines = ()
    for variant in VARIANTS:
        built = build_arrangement(variant)
        assert isinstance(built.lines, tuple)
        assert isinstance(built.lattice, tuple)
    _validate_labeling(build_arrangement("APRIME"))
    for variant in ("CPRIME", "RATIONAL10"):
        _validate_equivariant(build_arrangement(variant), variant)
    assert build_arrangement("C").weight_histogram() == {4: 1, 3: 8, 2: 6}


def test_build_is_deterministic():
    a = build_arrangement("APRIME").to_json()
    b = build_arrangement("APRIME").to_json()
    assert a == b
