"""Tests for the surface-singularity toolkit on the cusp deformation."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pentacheck.singularity as sing
from pentacheck.arrangement import build_arrangement, defining_polynomial
from pentacheck.groebner import Ideal, buchberger
from pentacheck.multipoly import MultiPoly, parse_poly
from pentacheck.checks import RunContext, get_check, run_check
from pentacheck.series import ParamCurve, TruncatedSeries, TruncationInsufficient
from pentacheck.singularity import (
    SurfaceGerm,
    cone_over_arrangement,
    cusp_family,
    cusp_surface,
    curve_on_x2,
    deformation_to_normal_cone,
    discriminant_multiplicity_check,
    discriminant_slice,
    dual_cone_membership,
    equal_up_to_unit_germ,
    exceptional_tangent_scan,
    gradient_limit,
    hyperplane_section_milnor,
    lojasiewicz_orders,
    lojasiewicz_test_curve,
    milnor_number_plane,
    multiplicity_at,
    polar_curve_empty,
    scaling_identities,
    section_family,
    section_fiber,
    singular_locus_equals,
    tangency_curve,
    tangency_limit_formula,
    unit_normal,
)

XYZ = ("x", "y", "z")
XYZT = ("x", "y", "z", "t")
ONE = Fraction(1)
QUADRIC_CUSP = parse_poly("z*x - y^2 + x^3", XYZ)


# -- oracle: Milnor number as local-algebra dimension -------------------


def _local_algebra_dim(g1, g2, cap):
    vs = g1.vars
    gens = [g1, g2, MultiPoly.var(vs, vs[0]) ** cap, MultiPoly.var(vs, vs[1]) ** cap]
    leads = [g.leading_term()[0] for g in buchberger(gens)]
    count = 0
    for i in range(cap + 1):
        for j in range(cap + 1):
            if not any(a <= i and b <= j for a, b in leads):
                count += 1
    return count


def milnor_oracle(h, p):
    """dim of the local algebra of the two partials, by Groebner staircase."""
    ht = h.translate(dict(zip(h.vars, p)))
    g1 = ht.derivative(h.vars[0])
    g2 = ht.derivative(h.vars[1])
    d7 = _local_algebra_dim(g1, g2, 7)
    d9 = _local_algebra_dim(g1, g2, 9)
    assert d7 == d9, "local algebra dimension did not stabilize"
    return d7


# -- germs, cones, deformations ----------------------------------------


def test_surface_germ_validates_multiplicity():
    SurfaceGerm(cusp_surface(), 3)
    with pytest.raises(ValueError):
        SurfaceGerm(cusp_surface(), 2)


def test_tangent_cone_of_cusp_surface():
    germ = SurfaceGerm(cusp_surface(), 3)
    assert germ.tangent_cone() == parse_poly("z^2*x - z*y^2", XYZ)


def test_cone_over_cprime_is_rational_degree_nine():
    g = cone_over_arrangement(build_arrangement("CPRIME"))
    assert g.total_degree() == 9
    assert all(sum(e) == 9 for e in g.terms)
    assert g.has_rational_coeffs()


def test_cone_dehomogenizes_to_defining_polynomial():
    arr = build_arrangement("CPRIME")
    g = cone_over_arrangement(arr)
    deh = g.substitute({"z": ONE}).in_vars(("x", "y"))
    assert deh == defining_polynomial(arr)


def test_deformation_matches_pinned_family():
    F = deformation_to_normal_cone(cusp_surface(), 3)
    assert F == parse_poly("z^2*x - z*y^2 + t*z*x^3", XYZT)
    assert F.substitute({"t": ONE}).in_vars(XYZ) == cusp_surface()
    assert F.substitute({"t": Fraction(0)}).in_vars(XYZ) == cusp_surface().initial_form(XYZ)


def test_deformation_of_homogeneous_is_t_free():
    F = deformation_to_normal_cone(parse_poly("x^3 + y^2*z", XYZ), 3)
    assert F.degree_in("t") == 0


def test_deformation_rejects_overstated_multiplicity():
    with pytest.raises(ValueError):
        deformation_to_normal_cone(cusp_surface(), 4)


def test_scaling_identities_hold_and_detect_corruption():
    F = cusp_family()
    assert scaling_identities(F, 3)
    assert not scaling_identities(F + parse_poly("x^2", XYZT), 3)


def test_scaling_identities_homogeneous():
    assert scaling_identities(parse_poly("x^3 + y^3 + z^3", XYZ), 3)


# -- singular loci ------------------------------------------------------


def test_singular_locus_of_surface_is_cusp():
    claimed = Ideal([parse_poly("z", XYZ), parse_poly("y^2 - x^3", XYZ)])
    assert singular_locus_equals(cusp_surface(), claimed)


def test_singular_locus_of_family_is_deformed_cusp():
    claimed = Ideal([parse_poly("z", XYZT), parse_poly("y^2 - t*x^3", XYZT)])
    assert singular_locus_equals(cusp_family(), claimed)


def test_singular_locus_rejects_wrong_ideal():
    wrong = Ideal([parse_poly("z", XYZ), parse_poly("y", XYZ)])
    assert not singular_locus_equals(cusp_surface(), wrong)


def test_smooth_surface_has_empty_singular_locus():
    assert singular_locus_equals(
        parse_poly("z", XYZ), Ideal([parse_poly("1", XYZ)])
    )


def test_polar_curve_empty_with_certificate():
    res = polar_curve_empty(cusp_family())
    assert res.empty
    assert len(res.certificate) == 1 and res.certificate[0].is_constant()


def test_polar_curve_nonempty_for_sphere():
    assert not polar_curve_empty(parse_poly("x^2 + y^2 + z^2 + t^2", XYZT)).empty


def test_polar_curve_empty_for_homogeneous():
    assert polar_curve_empty(parse_poly("x^3 + y^3 + z^3", XYZ)).empty


# -- multiplicity and Milnor numbers ------------------------------------


def test_multiplicity_at_points():
    h0 = section_fiber(0)
    assert multiplicity_at(h0, (Fraction(0), Fraction(0))) == 2
    assert multiplicity_at(parse_poly("z - y", ("y", "z")), (0, 0)) == 1
    h1 = section_fiber(1)
    assert multiplicity_at(h1, (ONE, Fraction(0))) == 2


def test_multiplicity_requires_vanishing():
    with pytest.raises(ValueError):
        multiplicity_at(section_fiber(0), (Fraction(2), ONE))


def test_milnor_numbers_of_the_fibers():
    h0 = section_fiber(0)
    assert milnor_number_plane(h0, (0, 0)) == 3
    h1 = section_fiber(1)
    assert milnor_number_plane(h1, (ONE, Fraction(0))) == 1
    assert milnor_number_plane(h1, (-ONE, Fraction(0))) == 1
    assert milnor_number_plane(parse_poly("z^2 - y^2", ("y", "z")), (0, 0)) == 1


def test_milnor_matches_local_algebra_oracle():
    cases = [
        (section_fiber(0), (Fraction(0), Fraction(0))),
        (section_fiber(1), (ONE, Fraction(0))),
        (section_fiber(4), (Fraction(2), Fraction(0))),
        (parse_poly("z^2 - y^3", ("y", "z")), (Fraction(0), Fraction(0))),
        (parse_poly("z^3 - y^3", ("y", "z")), (Fraction(0), Fraction(0))),
    ]
    for h, p in cases:
        assert milnor_number_plane(h, p) == milnor_oracle(h, p)


def test_milnor_invariant_under_scaling():
    h = section_fiber(0)
    assert milnor_number_plane(h, (0, 0)) == 3
    assert milnor_number_plane(h.scale(Fraction(7, 3)), (0, 0)) == 3


XY = ("x", "y")
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def plane_germs(draw):
    """h = q(x, y) + cubic terms; q is arbitrary, of rank one, or zero.

    The last two force a degenerate Hessian, so both branches of
    milnor_number_plane run.
    """
    kind = draw(st.sampled_from(["any", "rank1", "zero"]))
    if kind == "any":
        a, b, c = draw(small), draw(small), draw(small)
    elif kind == "rank1":  # k * (u*x + v*y)^2
        k, u, v = draw(small), draw(small), draw(small)
        a, b, c = k * u * u, 2 * k * u * v, k * v * v
    else:
        a = b = c = Fraction(0)
    terms = {(2, 0): a, (1, 1): b, (0, 2): c}
    for i in range(4):
        terms[(3 - i, i)] = draw(small)
    return MultiPoly(XY, terms)


def _isolated_at_origin(h):
    g1, g2 = h.derivative("x"), h.derivative("y")
    return _local_algebra_dim(g1, g2, 7) == _local_algebra_dim(g1, g2, 9)


@settings(max_examples=40, deadline=None)
@given(plane_germs())
@example(parse_poly("x^2 + 3*x*y - y^3", XY))  # det != 0: mu = 1
@example(parse_poly("x^2 + y^3", XY))  # det = 0: A2, mu = 2
@example(parse_poly("x^2 + x*y^2", XY))  # det = 0: A3, mu = 3
@example(parse_poly("x^3 - x*y^2 + y^3", XY))  # q = 0: D4, mu = 4
def test_milnor_matches_oracle_on_random_germs(h):
    assume(_isolated_at_origin(h))
    origin = (Fraction(0), Fraction(0))
    assert milnor_number_plane(h, origin) == milnor_oracle(h, origin)


def test_morse_sections_need_no_resultant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("resultant called")

    monkeypatch.setattr(sing, "resultant", refuse)
    assert hyperplane_section_milnor(QUADRIC_CUSP, 1, 0) == 1
    with pytest.raises(AssertionError, match="resultant called"):
        hyperplane_section_milnor(QUADRIC_CUSP, -1, 2)  # degenerate: mu = 2


def test_milnor_rejects_nonisolated():
    with pytest.raises(ArithmeticError):
        milnor_number_plane(parse_poly("z^2", ("y", "z")), (0, 0))


# -- discriminants ------------------------------------------------------


def test_discriminant_slice_is_squared_parabola_up_to_unit():
    h = section_family()
    target = parse_poly("u^2 - t", ("u", "t")) ** 2
    for b in (1, 2, 5):
        unit = equal_up_to_unit_germ(discriminant_slice(h, b), target)
        assert unit is not None


def test_discriminant_slice_smooth_family():
    triv = parse_poly("z^2 - y", ("y", "z", "t"))
    d = discriminant_slice(triv, 0)
    assert unit_normal(d) == unit_normal(parse_poly("u", ("u", "t")))


def test_discriminant_slice_rejects_degenerate_shear():
    with pytest.raises(ValueError):
        discriminant_slice(section_family(), 0)


@pytest.mark.parametrize("t0", [0, 1, 4])
def test_discriminant_multiplicity_identity(t0):
    r = discriminant_multiplicity_check(section_family(), 1, t0)
    assert r["equal"]
    assert r["sum_mult_delta"] == 4
    assert r["sum_mu_plus_m_minus_1"] == 4


def test_discriminant_multiplicity_rejects_irrational_fiber():
    with pytest.raises(ArithmeticError):
        discriminant_multiplicity_check(section_family(), 1, 2)


# -- gradient limits ----------------------------------------------------


TANGENCY_PARAMS = [
    (1, 0, 0, 0, 1),
    (2, 0, 1, 3, 1),
    (1, 1, 2, -1, 3),
    (-1, 0, 1, 1, 2),
    (3, 2, -1, 5, -2),
]


@pytest.mark.parametrize("params", TANGENCY_PARAMS)
def test_gradient_limit_matches_formula(params):
    lim = gradient_limit(cusp_family(), tangency_curve(*params))
    assert lim.eta == tangency_limit_formula(*params)


@pytest.mark.parametrize("params", TANGENCY_PARAMS)
def test_gradient_limit_is_independent_of_truncation(params):
    limits = [
        gradient_limit(cusp_family(), tangency_curve(*params, truncation=T))
        for T in (16, 64, 256)
    ]
    expected = (tangency_limit_formula(*params), limits[0].order)
    assert {(lim.eta, lim.order) for lim in limits} == {expected}


def test_gradient_limit_reparametrization_invariant():
    c = tangency_curve(1, 1, 2, -1, 3)
    l1 = gradient_limit(cusp_family(), c)
    l2 = gradient_limit(cusp_family(), c.reparametrize(Fraction(3, 2)))
    assert l1.eta == l2.eta


def test_gradient_limit_on_plane_component():
    curve = ParamCurve(
        {"x": [(1, ONE)], "y": [(1, ONE)], "z": [], "t": [(1, ONE)]}, 16
    )
    lim = gradient_limit(cusp_family(), curve)
    assert lim.eta == (0, 0, 1, 0)
    mem = dual_cone_membership(lim)
    assert mem["on_X1_dual"] and mem["eta4_zero"]


def test_gradient_limit_on_quadric_component():
    curve = curve_on_x2([(1, ONE)], [(1, ONE)], [(1, ONE)])
    mem = dual_cone_membership(gradient_limit(cusp_family(), curve))
    assert mem["eta4_zero"] and mem["on_X2_dual"]


def test_gradient_limit_truncation_error():
    with pytest.raises(TruncationInsufficient):
        gradient_limit(cusp_family(), tangency_curve(1, 0, 0, 0, 1, truncation=4))


def test_dual_cone_membership_arithmetic():
    from pentacheck.singularity import GradientLimit

    point = GradientLimit(eta=(ONE, 2 * ONE, ONE, Fraction(0)), order=0)
    mem = dual_cone_membership(point)
    assert mem["on_X2_dual"] and not mem["on_X1_dual"]


# -- Lojasiewicz orders -------------------------------------------------


def test_lojasiewicz_fails_on_pinned_curve():
    r = lojasiewicz_orders(cusp_family(), lojasiewicz_test_curve())
    assert (r["order_lhs"], r["order_rhs"], r["inequality_fails"]) == (7, 8, True)
    assert r["leading_lhs"] == "1" and r["leading_rhs"] == "-5"


def test_lojasiewicz_is_independent_of_truncation():
    low = lojasiewicz_orders(cusp_family(), lojasiewicz_test_curve(16))
    assert low == lojasiewicz_orders(cusp_family(), lojasiewicz_test_curve(256))


def test_series_power_stores_only_nonzero_coefficients():
    x = lojasiewicz_test_curve(256).component("x")  # x = s
    assert len((x**40).terms) == 1


def test_lojasiewicz_holds_on_generic_curve():
    curve = ParamCurve(
        {"x": [(1, ONE)], "y": [(1, ONE)], "z": [(1, ONE)], "t": [(1, ONE)]}, 16
    )
    assert not lojasiewicz_orders(cusp_family(), curve)["inequality_fails"]


def test_lojasiewicz_degenerate_convention():
    # z = 0 kills dF/dt identically: infinite left order, no failure
    curve = ParamCurve(
        {"x": [(1, ONE)], "y": [(1, ONE)], "z": [], "t": [(1, ONE)]}, 16
    )
    r = lojasiewicz_orders(cusp_family(), curve)
    assert r["order_lhs"] is None and not r["inequality_fails"]


def test_lojasiewicz_degenerate_convention_survives_reparametrization():
    curve = ParamCurve(
        {"x": [(1, ONE)], "y": [(1, ONE)], "z": [], "t": [(1, ONE)]}, 16
    ).reparametrize(Fraction(2))
    assert lojasiewicz_orders(cusp_family(), curve)["order_lhs"] is None


def test_lojasiewicz_low_truncation_is_undecided():
    # dF/dx = -5s^8 + ... is zero only up to T = 4: no order may be read off
    with pytest.raises(TruncationInsufficient, match="increase truncation"):
        lojasiewicz_orders(cusp_family(), lojasiewicz_test_curve(4))


def test_lojasiewicz_zero_on_truncated_series_is_undecided():
    # components given as series may be truncations of longer ones
    curve = ParamCurve(
        {
            "x": TruncatedSeries.from_terms([(1, ONE)], 16),
            "y": TruncatedSeries.from_terms([(1, ONE)], 16),
            "z": TruncatedSeries.zero(16),
            "t": TruncatedSeries.from_terms([(1, ONE)], 16),
        },
        16,
    )
    with pytest.raises(TruncationInsufficient):
        lojasiewicz_orders(cusp_family(), curve)


@pytest.mark.parametrize(
    "check_id",
    [
        "counterexample.lojasiewicz",
        "counterexample.gradient-limits",
        "counterexample.dual-cone",
    ],
)
def test_low_truncation_never_refutes(check_id):
    # these are the checks that read the truncation
    check = get_check(check_id)
    for T in range(1, 17):
        status = run_check(check, RunContext(truncation=T))["status"]
        assert status in ("pass", "error"), (T, status)
    assert run_check(check, RunContext())["status"] == "pass"


# -- hyperplane sections ------------------------------------------------


def test_hyperplane_section_milnor_values():
    assert hyperplane_section_milnor(QUADRIC_CUSP, 1, 0) == 1
    assert hyperplane_section_milnor(QUADRIC_CUSP, -1, 2) == 2
    assert hyperplane_section_milnor(QUADRIC_CUSP, 0, 0) == 2


def test_exceptional_tangent_scan_matches_dual_parabola():
    rep = exceptional_tangent_scan(
        QUADRIC_CUSP, dual_predicate=lambda a, b: b * b + 4 * a == 0
    )
    assert rep.min_mu == 1
    assert rep.matches_dual is True


def test_points_on_the_parabola_all_jump_to_two():
    for b in (Fraction(1, 2), Fraction(2), Fraction(-3, 2)):
        a = -b * b / 4
        assert hyperplane_section_milnor(QUADRIC_CUSP, a, b) == 2


def test_smooth_surface_sections_have_no_jumps():
    rep = exceptional_tangent_scan(
        parse_poly("z", XYZ),
        samples=[
            (Fraction(a), Fraction(b))
            for a in range(-2, 3)
            for b in range(-2, 3)
            if (a, b) != (0, 0)
        ],
    )
    assert rep.min_mu == 0
    assert rep.jump_set == ()
