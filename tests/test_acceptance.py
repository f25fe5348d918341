"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see the eleven criteria
reported individually.  Everything is checked in exact arithmetic.
"""

import time
from fractions import Fraction

from pentacheck.arrangement import (
    build_arrangement,
    cross_ratio,
    defining_polynomial,
    galois_invariance,
    incidence_automorphisms,
    line_weight_profile,
)
from pentacheck.checks import RunContext, run_all
from pentacheck.cli import main
from pentacheck.field import AlgebraicNumber, galois_group, minimal_polynomial
from pentacheck.groebner import Ideal
from pentacheck.multipoly import parse_poly
from pentacheck.series import ParamCurve
from pentacheck import singularity as sing

ONE = Fraction(1)


def test_criterion_01_field_degree_four_with_galois_group():
    mp = minimal_polynomial(AlgebraicNumber.alpha())
    assert mp == [Fraction(80), Fraction(0), Fraction(-20), Fraction(0), Fraction(1)]
    assert len(mp) - 1 == 4
    G = galois_group()
    assert len(G) == 4
    images = {tuple(g.image_of_alpha.coords) for g in G}
    for g in G:
        for h in G:
            assert tuple(g.apply(h.image_of_alpha).coords) in images


def test_criterion_02_aprime_lattice_weights_and_deficiencies():
    arr = build_arrangement("APRIME")
    assert len(arr.lattice) == 18
    assert len(arr.points_at_infinity()) == 1
    assert arr.weight_histogram() == {4: 3, 3: 6, 2: 9}
    assert sorted(p.label for p in arr.lattice if p.weight == 4) == ["E", "H", "I"]
    for w in (2, 3, 4):
        lacking = [
            lab
            for lab, _ in arr.lines
            if w not in line_weight_profile(arr, lab)
        ]
        assert len(lacking) == 1, f"weight {w}: {lacking}"


def test_criterion_03_stable_arrangements_have_rational_products():
    phi9 = defining_polynomial(build_arrangement("CPRIME"))
    assert phi9.total_degree() == 9 and phi9.has_rational_coeffs()
    phi10 = defining_polynomial(build_arrangement("RATIONAL10"))
    assert phi10.total_degree() == 10 and phi10.has_rational_coeffs()


def test_criterion_04_aprime_product_is_moved_by_galois():
    phi = defining_polynomial(build_arrangement("APRIME"))
    rep = galois_invariance(phi)
    assert not rep.is_rational
    assert rep.violating_sigma is not None
    assert rep.differing_monomial is not None


def test_criterion_05_pencil_cross_ratio_is_irrational():
    arr = build_arrangement("APRIME")
    lam = cross_ratio([arr.line(l) for l in ("AI", "BI", "CI", "DI")])
    assert len(minimal_polynomial(lam)) - 1 >= 2


def test_criterion_06_aprime_is_incidence_rigid_quickly():
    start = time.monotonic()
    autos = incidence_automorphisms(build_arrangement("APRIME"))
    elapsed = time.monotonic() - start
    assert len(autos) == 1
    assert elapsed < 10.0


def test_criterion_07_counterexample_loci_and_polar_curve():
    f = sing.cusp_surface()
    F = sing.cusp_family()
    assert sing.singular_locus_equals(
        f,
        Ideal([parse_poly("z", ("x", "y", "z")), parse_poly("y^2 - x^3", ("x", "y", "z"))]),
    )
    assert sing.singular_locus_equals(
        F,
        Ideal(
            [
                parse_poly("z", ("x", "y", "z", "t")),
                parse_poly("y^2 - t*x^3", ("x", "y", "z", "t")),
            ]
        ),
    )
    assert f.initial_form(("x", "y", "z")) == parse_poly(
        "z^2*x - z*y^2", ("x", "y", "z")
    )
    res = sing.polar_curve_empty(F)
    assert res.empty and res.certificate


def test_criterion_08_milnor_numbers_and_discriminant():
    h0 = sing.section_fiber(0)
    assert sing.milnor_number_plane(h0, (0, 0)) == 3
    assert sing.multiplicity_at(h0, (0, 0)) == 2
    for t0, root in ((1, 1), (4, 2)):
        h = sing.section_fiber(t0)
        for s in (root, -root):
            assert sing.milnor_number_plane(h, (Fraction(s), Fraction(0))) == 1
            assert sing.multiplicity_at(h, (Fraction(s), Fraction(0))) == 2
    target = parse_poly("u^2 - t", ("u", "t")) ** 2
    for b in (1, 2):
        d = sing.discriminant_slice(sing.section_family(), b)
        assert sing.equal_up_to_unit_germ(d, target) is not None
    for t0 in (0, 1, 4):
        r = sing.discriminant_multiplicity_check(sing.section_family(), 1, t0)
        assert r["equal"] and r["sum_mult_delta"] == 4


def test_criterion_09_gradient_limits_and_lojasiewicz():
    F = sing.cusp_family()
    tuples = [
        (1, 0, 0, 0, 1),
        (2, 0, 1, 3, 1),
        (1, 1, 2, -1, 3),
        (-1, 0, 1, 1, 2),
        (3, 2, -1, 5, -2),
    ]
    for tp in tuples:
        lim = sing.gradient_limit(F, sing.tangency_curve(*tp))
        assert lim.eta == sing.tangency_limit_formula(*tp)
    curves = [
        ParamCurve({"x": [(1, ONE)], "y": [(1, ONE)], "z": [], "t": [(1, ONE)]}, 16),
        ParamCurve({"x": [(1, ONE)], "y": [(1, 2 * ONE)], "z": [], "t": [(2, 3 * ONE)]}, 16),
        sing.curve_on_x2([(1, ONE)], [(1, ONE)], [(1, ONE)]),
        sing.curve_on_x2([(1, ONE)], [(1, 2 * ONE)], [(2, ONE)]),
        sing.curve_on_x2([(1, ONE)], [(2, ONE)], [(2, 2 * ONE)]),
        sing.curve_on_x2([(1, ONE), (2, ONE)], [(1, ONE)], [(1, 2 * ONE)]),
        sing.curve_on_x2([(1, 2 * ONE)], [(1, 3 * ONE)], [(1, 5 * ONE)]),
        sing.curve_on_x2([(1, ONE)], [(1, ONE), (3, ONE)], [(2, ONE), (3, ONE)]),
        sing.curve_on_x2([(2, ONE)], [(3, ONE)], [(1, ONE)]),
        sing.curve_on_x2([(1, ONE)], [(2, 3 * ONE)], [(1, 7 * ONE)]),
    ]
    assert len(curves) >= 10
    for curve in curves:
        mem = sing.dual_cone_membership(sing.gradient_limit(F, curve))
        assert mem["eta4_zero"]
        assert mem["on_X1_dual"] or mem["on_X2_dual"]
    r = sing.lojasiewicz_orders(F, sing.lojasiewicz_test_curve())
    assert (r["order_lhs"], r["order_rhs"], r["inequality_fails"]) == (7, 8, True)
    assert r["leading_lhs"] is not None and r["leading_rhs"] is not None


def test_criterion_10_scaling_identities():
    assert sing.scaling_identities(sing.cusp_family(), 3)


def test_criterion_11_reports_are_byte_identical(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["verify", "all", "--report", str(r1), "--truncation", "16"]) == 0
    assert main(["verify", "all", "--report", str(r2), "--truncation", "16"]) == 0
    assert r1.read_bytes() == r2.read_bytes()
