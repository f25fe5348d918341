"""Registry of named verification checks.

Each check pins the inputs of one workbench computation and compares the
result against the claimed exact value.  Checks are pure functions of a
RunContext (the series truncation), so a fixed context reproduces the same
witnesses bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import field as nfield
from .arrangement import (
    build_arrangement,
    cross_ratio,
    defining_polynomial,
    galois_invariance,
    galois_line_action_permutes,
    incidence_automorphisms,
    line_weight_profile,
)
from .field import AlgebraicNumber, galois_group, minimal_polynomial
from .groebner import Ideal
from .multipoly import MultiPoly, format_poly, parse_poly
from .series import DEFAULT_TRUNCATION, ParamCurve, TruncationInsufficient
from . import singularity as sing


@dataclass(frozen=True)
class RunContext:
    truncation: int = DEFAULT_TRUNCATION


@dataclass(frozen=True)
class Check:
    check_id: str
    claim: str
    run: object = dc_field(repr=False)  # RunContext -> (ok, witnesses)


class CheckFailure(Exception):
    """Raised by a check body to fail with structured witnesses."""

    def __init__(self, witnesses):
        super().__init__("check failed")
        self.witnesses = witnesses


def jsonable(v):
    """Exact values rendered into JSON-stable structures."""
    if isinstance(v, AlgebraicNumber):
        return v.to_json()
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, MultiPoly):
        return format_poly(v)
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v


_REGISTRY: dict = {}


def register(check_id: str, claim: str):
    def wrap(fn):
        _REGISTRY[check_id] = Check(check_id, claim, fn)
        return fn

    return wrap


def all_checks() -> list:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_check(check_id: str) -> Check:
    if check_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown check id {check_id!r}; known ids: {known}")
    return _REGISTRY[check_id]


# -- field checks -------------------------------------------------------


@register(
    "field.minimal-polynomial",
    "alpha = sqrt(10 + 2*sqrt(5)) has minimal polynomial x^4 - 20x^2 + 80, "
    "so the field has degree 4 over Q",
)
def _field_minpoly(ctx):
    mp = minimal_polynomial(AlgebraicNumber.alpha())
    expected = [Fraction(80), Fraction(0), Fraction(-20), Fraction(0), Fraction(1)]
    ok = list(mp) == expected
    return ok, {"minimal_polynomial": [str(c) for c in mp], "degree": len(mp) - 1}


@register(
    "field.galois-group",
    "the field is Galois over Q with exactly 4 automorphisms closed under "
    "composition",
)
def _field_galois(ctx):
    G = galois_group()
    names = [g.name for g in G]
    closed = True
    table = {}
    for g in G:
        for h in G:
            img = g.apply(h.image_of_alpha)
            match = [e.name for e in G if e.image_of_alpha == img]
            if len(match) != 1:
                closed = False
            else:
                table[f"{g.name}*{h.name}"] = match[0]
    ok = len(G) == 4 and closed
    return ok, {"elements": names, "composition_table": table}


@register(
    "field.conjugates",
    "the four Galois images of alpha are exactly the four roots of the "
    "minimal polynomial",
)
def _field_conjugates(ctx):
    mp = minimal_polynomial(AlgebraicNumber.alpha())
    ok = True
    images = []
    for g in galois_group():
        im = g.image_of_alpha
        images.append(im)
        val = nfield.eval_poly(mp, im)
        if val:
            ok = False
    if len(set(images)) != 4:
        ok = False
    return ok, {"images_of_alpha": [i.to_json() for i in images]}


# -- arrangement checks -------------------------------------------------


@register(
    "arrangement.aprime.weights",
    "the 10-line arrangement A' has 18 lattice points, exactly one at "
    "infinity, weight histogram {4:3, 3:6, 2:9}, and weight-4 points "
    "exactly {E, H, I}",
)
def _aprime_weights(ctx):
    arr = build_arrangement("APRIME")
    hist = arr.weight_histogram()
    inf = arr.points_at_infinity()
    w4 = sorted(p.label or "?" for p in arr.lattice if p.weight == 4)
    ok = (
        len(arr.lattice) == 18
        and len(inf) == 1
        and hist == {4: 3, 3: 6, 2: 9}
        and w4 == ["E", "H", "I"]
    )
    return ok, {
        "lattice_size": len(arr.lattice),
        "points_at_infinity": len(inf),
        "histogram": {str(k): v for k, v in sorted(hist.items())},
        "weight4_points": w4,
    }


@register(
    "arrangement.aprime.line-deficiencies",
    "in A' exactly one line carries no weight-2 point, exactly one no "
    "weight-3 point, and exactly one no weight-4 point",
)
def _aprime_deficiencies(ctx):
    arr = build_arrangement("APRIME")
    missing = {2: [], 3: [], 4: []}
    for lab, _ in arr.lines:
        profile = line_weight_profile(arr, lab)
        for w in (2, 3, 4):
            if w not in profile:
                missing[w].append(lab)
    ok = all(len(missing[w]) == 1 for w in (2, 3, 4))
    return ok, {f"lines_without_weight_{w}": missing[w] for w in (2, 3, 4)}


@register(
    "arrangement.aprime.rigidity",
    "the incidence structure of A' admits only the identity automorphism",
)
def _aprime_rigidity(ctx):
    arr = build_arrangement("APRIME")
    autos = incidence_automorphisms(arr)
    ok = len(autos) == 1
    return ok, {"automorphism_count": len(autos)}


@register(
    "arrangement.cprime.weights",
    "the 9-line arrangement C' has 15 lattice points with weight histogram "
    "{4:1, 3:8, 2:6}",
)
def _cprime_weights(ctx):
    arr = build_arrangement("CPRIME")
    hist = arr.weight_histogram()
    ok = len(arr.lattice) == 15 and hist == {4: 1, 3: 8, 2: 6}
    return ok, {
        "lattice_size": len(arr.lattice),
        "histogram": {str(k): v for k, v in sorted(hist.items())},
    }


@register(
    "arrangement.c.weights",
    "the comparison arrangement C has the same weight histogram "
    "{4:1, 3:8, 2:6} as C'",
)
def _c_weights(ctx):
    arr = build_arrangement("C")
    hist = arr.weight_histogram()
    ok = hist == {4: 1, 3: 8, 2: 6}
    return ok, {"histogram": {str(k): v for k, v in sorted(hist.items())}}


@register(
    "arrangement.cross-ratio",
    "the cross-ratio of the concurrent lines AI, BI, CI, DI of A' is "
    "irrational (its minimal polynomial has degree >= 2)",
)
def _cross_ratio(ctx):
    arr = build_arrangement("APRIME")
    lam = cross_ratio([arr.line(l) for l in ("AI", "BI", "CI", "DI")])
    mp = minimal_polynomial(lam)
    ok = len(mp) - 1 >= 2
    return ok, {
        "cross_ratio": lam.to_json(),
        "minimal_polynomial": [str(c) for c in mp],
        "degree": len(mp) - 1,
    }


# -- Galois action checks -----------------------------------------------


@register(
    "galois.aprime.noninvariant",
    "the degree-10 defining polynomial of A' is moved by some field "
    "automorphism: the arrangement is not Galois-stable",
)
def _aprime_noninvariant(ctx):
    phi = defining_polynomial(build_arrangement("APRIME"))
    rep = galois_invariance(phi)
    ok = not rep.is_rational and rep.violating_sigma is not None
    return ok, rep.witness()


@register(
    "galois.cprime.rational",
    "the degree-9 defining polynomial of C' has rational coefficients",
)
def _cprime_rational(ctx):
    phi = defining_polynomial(build_arrangement("CPRIME"))
    ok = phi.has_rational_coeffs() and phi.total_degree() == 9
    return ok, {"degree": phi.total_degree(), "polynomial": format_poly(phi)}


@register(
    "galois.rational10.rational",
    "adding the line JK to C' gives a 10-line arrangement whose defining "
    "polynomial has rational coefficients",
)
def _rational10_rational(ctx):
    phi = defining_polynomial(build_arrangement("RATIONAL10"))
    ok = phi.has_rational_coeffs() and phi.total_degree() == 10
    return ok, {"degree": phi.total_degree(), "polynomial": format_poly(phi)}


@register(
    "galois.rational10.line-permutation",
    "every field automorphism permutes the 10 lines of the rational "
    "arrangement",
)
def _rational10_permutation(ctx):
    arr = build_arrangement("RATIONAL10")
    results = {}
    ok = True
    for g in galois_group():
        r = galois_line_action_permutes(arr, g)
        results[g.name] = r
        ok = ok and r
    return ok, {"permutes": results}


# -- counterexample checks ----------------------------------------------


@register(
    "counterexample.cone",
    "the cone over C' is a homogeneous degree-9 polynomial with rational "
    "coefficients whose dehomogenization recovers the plane product",
)
def _cone(ctx):
    arr = build_arrangement("CPRIME")
    g = sing.cone_over_arrangement(arr)
    deh = g.substitute({"z": Fraction(1)}).in_vars(("x", "y"))
    homogeneous = all(sum(e) == 9 for e in g.terms)
    ok = (
        g.total_degree() == 9
        and homogeneous
        and g.has_rational_coeffs()
        and deh == defining_polynomial(arr)
    )
    return ok, {
        "degree": g.total_degree(),
        "homogeneous": homogeneous,
        "rational": g.has_rational_coeffs(),
        "dehomogenization_matches": deh == defining_polynomial(arr),
    }


@register(
    "counterexample.deformation",
    "the deformation of f = z(zx - y^2) + zx^3 to its normal cone is "
    "F = z(zx - y^2) + t*z*x^3, with F|t=0 the tangent cone and F|t=1 = f",
)
def _deformation(ctx):
    f = sing.cusp_surface()
    F = sing.deformation_to_normal_cone(f, 3)
    expected = parse_poly("z^2*x - z*y^2 + t*z*x^3", ("x", "y", "z", "t"))
    at0 = F.substitute({"t": Fraction(0)}).in_vars(("x", "y", "z"))
    at1 = F.substitute({"t": Fraction(1)}).in_vars(("x", "y", "z"))
    ok = F == expected and at0 == f.initial_form(("x", "y", "z")) and at1 == f
    return ok, {
        "F": format_poly(F),
        "F_at_t0": format_poly(at0),
        "F_at_t1_equals_f": at1 == f,
    }


@register(
    "counterexample.tangent-cone",
    "the tangent cone of f = z(zx - y^2) + zx^3 is z(zx - y^2), the union "
    "of a plane and a quadric cone",
)
def _tangent_cone(ctx):
    f = sing.cusp_surface()
    tc = f.initial_form(("x", "y", "z"))
    expected = parse_poly("z^2*x - z*y^2", ("x", "y", "z"))
    ok = tc == expected
    return ok, {"tangent_cone": format_poly(tc)}


@register(
    "counterexample.scaling",
    "F = z(zx - y^2) + t*z*x^3 satisfies the exact scaling identities of a "
    "normal-cone deformation of multiplicity 3, and a corrupted F does not",
)
def _scaling(ctx):
    F = sing.cusp_family()
    good = sing.scaling_identities(F, 3)
    bad = sing.scaling_identities(
        F + parse_poly("x^2", ("x", "y", "z", "t")), 3
    )
    ok = good and not bad
    return ok, {"identities_hold": good, "corrupted_copy_holds": bad}


@register(
    "counterexample.singular-locus",
    "the singular locus of f is the cusp {z = 0, y^2 = x^3} and the "
    "singular locus of F is its deformation {z = 0, y^2 = t*x^3}",
)
def _singular_locus(ctx):
    f = sing.cusp_surface()
    F = sing.cusp_family()
    c1 = Ideal(
        [parse_poly("z", ("x", "y", "z")), parse_poly("y^2 - x^3", ("x", "y", "z"))]
    )
    c2 = Ideal(
        [
            parse_poly("z", ("x", "y", "z", "t")),
            parse_poly("y^2 - t*x^3", ("x", "y", "z", "t")),
        ]
    )
    r1 = sing.singular_locus_equals(f, c1)
    r2 = sing.singular_locus_equals(F, c2)
    return r1 and r2, {"surface_locus_is_cusp": r1, "family_locus_matches": r2}


@register(
    "counterexample.polar-curve",
    "the relative polar curve of F is empty: F lies in the radical of its "
    "space-gradient ideal",
)
def _polar(ctx):
    res = sing.polar_curve_empty(sing.cusp_family())
    return res.empty, {
        "empty": res.empty,
        "certificate_basis": [format_poly(g) for g in res.certificate],
    }


@register(
    "counterexample.milnor",
    "the fiber curves z(z - y^2 + t0) have mu = 3, m = 2 at the origin for "
    "t0 = 0 and mu = 1, m = 2 at each of the two nodes for t0 in {1, 4}",
)
def _milnor(ctx):
    out = {}
    ok = True
    h0 = sing.section_fiber(0)
    mu0 = sing.milnor_number_plane(h0, (Fraction(0), Fraction(0)))
    m0 = sing.multiplicity_at(h0, (Fraction(0), Fraction(0)))
    out["t0=0"] = {"point": ["0", "0"], "mu": mu0, "m": m0}
    ok = ok and mu0 == 3 and m0 == 2
    for t0, root in ((1, 1), (4, 2)):
        h = sing.section_fiber(t0)
        for s in (root, -root):
            p = (Fraction(s), Fraction(0))
            mu = sing.milnor_number_plane(h, p)
            m = sing.multiplicity_at(h, p)
            out[f"t0={t0},y={s}"] = {"mu": mu, "m": m}
            ok = ok and mu == 1 and m == 2
    return ok, out


@register(
    "counterexample.discriminant",
    "the discriminant of (y, z, t) -> (t, y - b*z) on z(z - y^2 + t) = 0 "
    "equals (u^2 - t)^2 up to a unit germ, for b in {1, 2}",
)
def _discriminant(ctx):
    h = sing.section_family()
    target = parse_poly("u^2 - t", ("u", "t")) ** 2
    out = {}
    ok = True
    for b in (1, 2):
        d = sing.discriminant_slice(h, b)
        unit = sing.equal_up_to_unit_germ(d, target)
        out[f"b={b}"] = {
            "discriminant": format_poly(d),
            "unit_cofactor": format_poly(unit) if unit is not None else None,
        }
        ok = ok and unit is not None
    return ok, out


@register(
    "counterexample.discriminant-multiplicity",
    "for t0 in {0, 1, 4} the discriminant root multiplicity 4 equals the "
    "sum of (mu + m - 1) over the singular points of the fiber",
)
def _discriminant_multiplicity(ctx):
    h = sing.section_family()
    out = {}
    ok = True
    for t0 in (0, 1, 4):
        r = sing.discriminant_multiplicity_check(h, 1, t0)
        out[f"t0={t0}"] = r
        ok = ok and r["equal"] and r["sum_mult_delta"] == 4
    return ok, out


@register(
    "counterexample.gradient-limits",
    "along the five-parameter tangency curves the gradient direction of F "
    "converges to (-5a1 : -2g : (2a3 + b3 - g^2)/a1 : 1)",
)
def _gradient_limits(ctx):
    F = sing.cusp_family()
    tuples = [
        (1, 0, 0, 0, 1),
        (2, 0, 1, 3, 1),
        (1, 1, 2, -1, 3),
        (-1, 0, 1, 1, 2),
        (3, 2, -1, 5, -2),
    ]
    out = {}
    ok = True
    for tp in tuples:
        curve = sing.tangency_curve(*tp, truncation=ctx.truncation)
        lim = sing.gradient_limit(F, curve)
        expected = sing.tangency_limit_formula(*tp)
        match = lim.eta == expected
        out[str(tp)] = {"limit": lim.to_json(), "matches_formula": match}
        ok = ok and match
    return ok, out


@register(
    "counterexample.dual-cone",
    "gradient limits along 10 sampled curves on the deformed surface have "
    "eta4 = 0 and lie on the dual of the plane z = 0 or of the quadric "
    "zx = y^2",
)
def _dual_cone(ctx):
    F = sing.cusp_family()
    T = ctx.truncation
    one = Fraction(1)
    curves = [
        ("x1:x=s,y=s,t=s", ParamCurve(
            {"x": [(1, one)], "y": [(1, one)], "z": [], "t": [(1, one)]}, T)),
        ("x1:x=s,y=2s,t=3s^2", ParamCurve(
            {"x": [(1, one)], "y": [(1, 2 * one)], "z": [], "t": [(2, 3 * one)]}, T)),
    ]
    x2_data = [
        ([(1, one)], [(1, one)], [(1, one)]),
        ([(1, one)], [(1, 2 * one)], [(2, one)]),
        ([(1, one)], [(2, one)], [(2, 2 * one)]),
        ([(1, one), (2, one)], [(1, one)], [(1, 2 * one)]),
        ([(1, 2 * one)], [(1, 3 * one)], [(1, 5 * one)]),
        ([(1, one)], [(1, one), (3, one)], [(2, one), (3, one)]),
        ([(2, one)], [(3, one)], [(1, one)]),
        ([(1, one)], [(2, 3 * one)], [(1, 7 * one)]),
    ]
    for i, (xt, yt, tt) in enumerate(x2_data):
        curves.append((f"x2:sample{i}", sing.curve_on_x2(xt, yt, tt, T)))
    out = {}
    ok = True
    for name, curve in curves:
        lim = sing.gradient_limit(F, curve)
        mem = sing.dual_cone_membership(lim)
        good = mem["eta4_zero"] and (mem["on_X1_dual"] or mem["on_X2_dual"])
        out[name] = {"limit": lim.to_json(), **mem}
        ok = ok and good
    return ok, out


@register(
    "counterexample.lojasiewicz",
    "along x = s, y = 0, z = s^4, t = -2s^2 the parameter derivative of F "
    "vanishes to order 7 but the space gradient to order 8, so the "
    "gradient inequality fails",
)
def _lojasiewicz(ctx):
    F = sing.cusp_family()
    r = sing.lojasiewicz_orders(F, sing.lojasiewicz_test_curve(ctx.truncation))
    ok = (
        r["order_lhs"] == 7
        and r["order_rhs"] == 8
        and r["inequality_fails"] is True
    )
    return ok, r


@register(
    "counterexample.hyperplane-sections",
    "plane sections z = a*x + b*y of the quadric-cusp surface "
    "zx - y^2 + x^3 have Milnor number 1 off the parabola b^2 + 4a = 0 "
    "and 2 on it (including the section z = 0, a cusp)",
)
def _hyperplane_sections(ctx):
    f2 = parse_poly("z*x - y^2 + x^3", ("x", "y", "z"))
    generic = sing.hyperplane_section_milnor(f2, 1, 0)
    on_curve = sing.hyperplane_section_milnor(f2, -1, 2)
    cusp = sing.hyperplane_section_milnor(f2, 0, 0)
    ok = generic == 1 and on_curve == 2 and cusp == 2
    return ok, {
        "mu_generic_(a,b)=(1,0)": generic,
        "mu_on_parabola_(a,b)=(-1,2)": on_curve,
        "mu_section_z=0": cusp,
    }


@register(
    "counterexample.exceptional-tangents",
    "over an 11x11 rational grid of plane sections the Milnor number "
    "jumps above its minimum exactly on the dual-curve locus b^2 + 4a = 0: "
    "the quadric cone has no exceptional tangents beyond its dual",
)
def _exceptional_tangents(ctx):
    f2 = parse_poly("z*x - y^2 + x^3", ("x", "y", "z"))
    rep = sing.exceptional_tangent_scan(
        f2, dual_predicate=lambda a, b: b * b + 4 * a == 0
    )
    ok = rep.matches_dual is True and rep.min_mu == 1
    return ok, rep.to_json()


# -- execution ----------------------------------------------------------


def run_check(check: Check, ctx: RunContext) -> dict:
    """One report entry: {check_id, status, claim, witnesses, duration_ms}."""
    try:
        ok, witnesses = check.run(ctx)
        status = "pass" if ok else "fail"
    except CheckFailure as exc:
        status, witnesses = "fail", exc.witnesses
    except TruncationInsufficient as exc:
        status, witnesses = "error", {"error": str(exc)}
    except Exception as exc:  # noqa: BLE001 - reported, never swallowed
        status, witnesses = "error", {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "check_id": check.check_id,
        "status": status,
        "claim": check.claim,
        "witnesses": jsonable(witnesses),
        # pinned to zero so reports with equal inputs are byte-identical
        "duration_ms": 0,
    }


def run_all(ctx: RunContext) -> list:
    return [run_check(c, ctx) for c in all_checks()]
