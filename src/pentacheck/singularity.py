"""Exact surface-singularity toolkit for the cusp deformation example.

The central object is the surface f = z(zx - y^2) + zx^3 together with its
deformation to the normal cone F = z(zx - y^2) + t*z*x^3.  Everything here
is computed exactly: singular loci by radical membership, Milnor numbers
(mu = 1 certified by a nondegenerate Hessian, degenerate critical points as
resultant orders after a fixed sequence of linear changes), discriminants as
resultants, and gradient limits as leading coefficients of truncated series.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .groebner import Ideal, radical_membership, same_radical
from .multipoly import MultiPoly, content_free, parse_poly, resultant
from .series import (
    DEFAULT_TRUNCATION,
    ParamCurve,
    TruncatedSeries,
    TruncationInsufficient,
    ZeroToTruncation,
)

SPACE_VARS = ("x", "y", "z")
FAMILY_VARS = ("x", "y", "z", "t")
# changes in which the minimal resultant order must recur (milnor_number_plane)
MILNOR_TRIALS = 3


# -- the pinned example -------------------------------------------------


def cusp_surface() -> MultiPoly:
    """f = z(zx - y^2) + zx^3: the surface whose slice z=0 carries a cusp."""
    return parse_poly("z^2*x - z*y^2 + z*x^3", SPACE_VARS)


def cusp_family() -> MultiPoly:
    """F = z(zx - y^2) + t*z*x^3: deformation of f to its normal cone."""
    return deformation_to_normal_cone(cusp_surface(), 3)


def section_family() -> MultiPoly:
    """h(y, z, t) = z(z - y^2 + t): the family F restricted to x = 1."""
    return parse_poly("z^2 - z*y^2 + z*t", ("y", "z", "t"))


def section_fiber(t0) -> MultiPoly:
    """The plane curve h(y, z, t0) in (y, z)."""
    h = section_family()
    return h.substitute({"t": Fraction(t0)}).in_vars(("y", "z"))


# -- germs and cones ----------------------------------------------------


@dataclass(frozen=True)
class SurfaceGerm:
    """A polynomial surface germ with its declared multiplicity."""

    f: MultiPoly
    d: int

    def __post_init__(self):
        if self.f.is_zero():
            raise ValueError("the zero polynomial defines no germ")
        if _weighted_order(self.f, SPACE_VARS) != self.d:
            raise ValueError(
                f"declared multiplicity {self.d} differs from the order "
                f"{_weighted_order(self.f, SPACE_VARS)} of the initial form"
            )

    def tangent_cone(self) -> MultiPoly:
        return self.f.initial_form(SPACE_VARS)


def _weighted_order(p: MultiPoly, graded_vars) -> int:
    idx = [p.vars.index(v) for v in graded_vars if v in p.vars]
    return min(sum(e[i] for i in idx) for e in p.terms)


def cone_over_arrangement(arr) -> MultiPoly:
    """Product of the homogenized affine normal forms of the lines.

    A line x - b*y - a becomes x - b*y - a*z, a line y - c becomes y - c*z;
    the product is homogeneous of degree equal to the number of lines.
    """
    variables = SPACE_VARS
    x = MultiPoly.var(variables, "x")
    y = MultiPoly.var(variables, "y")
    z = MultiPoly.var(variables, "z")
    prod = MultiPoly.constant(variables, Fraction(1))
    for lab, line in arr.lines:
        try:
            nf = line.affine_normal_form()
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lab!r} has no affine normal form") from exc
        if nf[0] == "x":
            _, b, a = nf
            prod = prod * (x - y * b - z * a)
        else:
            _, c = nf
            prod = prod * (y - z * c)
    return prod


def deformation_to_normal_cone(f: MultiPoly, d: int) -> MultiPoly:
    """F(x, y, z, t) with each degree-e form of f multiplied by t^(e-d).

    Then F restricted to t = 0 is the initial form f_d and F at t = 1 is f.
    """
    if "t" in f.vars:
        raise ValueError("f may not already involve the deformation variable t")
    if any(all(k == 0 for k in e) for e in f.terms):
        raise ValueError("f must vanish at the origin")
    ext = f.vars + ("t",)
    terms = {}
    for e, c in f.terms.items():
        w = sum(e)
        if w < d:
            raise ValueError(
                f"term of degree {w} below the declared multiplicity {d}: "
                "the deformation would need a negative power of t"
            )
        terms[e + (w - d,)] = c
    return MultiPoly(ext, terms)


def scaling_identities(F: MultiPoly, d: int) -> bool:
    """Exact scaling identities of the normal-cone deformation.

    With (x, y, z) scaled by a fresh s and t by s on the other side:
      F(sx, sy, sz, t)       = s^d     * F(x, y, z, st)
      dF/dv(sx, sy, sz, t)   = s^(d-1) * dF/dv(x, y, z, st)   for v in x,y,z
      dF/dt(sx, sy, sz, t)   = s^(d+1) * dF/dt(x, y, z, st)
    """
    if "s" in F.vars:
        raise ValueError("F already uses the scaling variable s")
    ext = F.vars + ("s",)
    s = MultiPoly.var(ext, "s")
    scale_space = {
        v: s * MultiPoly.var(ext, v) for v in SPACE_VARS if v in F.vars
    }
    scale_time = (
        {"t": s * MultiPoly.var(ext, "t")} if "t" in F.vars else {}
    )

    def holds(p: MultiPoly, weight: int) -> bool:
        pe = p.in_vars(ext)
        lhs = pe.substitute(scale_space)
        rhs = (s ** weight) * (pe.substitute(scale_time) if scale_time else pe)
        return (lhs - rhs).is_zero()

    if not holds(F, d):
        return False
    for v in SPACE_VARS:
        if v in F.vars and not holds(F.derivative(v), d - 1):
            return False
    if "t" in F.vars and not holds(F.derivative("t"), d + 1):
        return False
    return True


# -- singular loci ------------------------------------------------------


def jacobian_ideal(f: MultiPoly) -> Ideal:
    gens = [f] + [f.derivative(v) for v in f.vars]
    return Ideal([g for g in gens if not g.is_zero()])


def singular_locus_equals(f: MultiPoly, claimed: Ideal) -> bool:
    """Does V(f, all partials) coincide with V(claimed) as a set?"""
    return same_radical(jacobian_ideal(f), claimed)


def polar_curve_empty(F: MultiPoly):
    """Is the relative polar curve V(F_x, F_y, F_z) \\ V(F) empty?

    True exactly when F lies in the radical of the space-gradient ideal;
    the certificate is the Groebner basis showing 1 in <ideal, 1 - w*F>.
    """
    gens = [F.derivative(v) for v in SPACE_VARS if v in F.vars]
    verdict, certificate = radical_membership(F, Ideal(gens))
    return PolarCurveResult(verdict, certificate)


@dataclass(frozen=True)
class PolarCurveResult:
    empty: bool
    certificate: list

    def __bool__(self) -> bool:
        return self.empty


# -- multiplicities and Milnor numbers ----------------------------------


def multiplicity_at(h: MultiPoly, p) -> int:
    """Order of the lowest-degree form of h after moving p to the origin."""
    point = dict(zip(h.vars, p))
    ht = h.translate(point)
    if any(all(k == 0 for k in e) for e in ht.terms):
        raise ValueError(f"h does not vanish at {tuple(p)}")
    return _weighted_order(ht, ht.vars)


def milnor_number_plane(h: MultiPoly, p) -> int:
    """Local intersection multiplicity of the two partials of h at p.

    A critical point with nondegenerate Hessian has mu = 1, certified
    exactly by the Morse lemma.  Only a degenerate critical point is
    computed as the order at u = 0 of Res_v of the partials after an
    invertible linear change of coordinates; the minimum must recur in
    MILNOR_TRIALS changes, otherwise the computation aborts.  The changes
    always come from random.Random(0), so every call on equal inputs makes
    the same changes.  A certified local-algebra computation is to replace
    them (ROADMAP item 4).
    """
    if len(h.vars) != 2:
        raise ValueError("milnor_number_plane expects a polynomial in 2 variables")
    point = dict(zip(h.vars, p))
    ht = h.translate(point)
    g1 = ht.derivative(h.vars[0])
    g2 = ht.derivative(h.vars[1])
    if not (_vanishes_at_origin(g1) and _vanishes_at_origin(g2)):
        return 0  # smooth point: the gradient does not vanish
    if g1.is_zero() or g2.is_zero():
        raise ArithmeticError(
            "a partial derivative vanishes identically: the critical point "
            "is not isolated"
        )
    # Morse lemma: a nondegenerate Hessian makes the partials meet
    # transversally, so mu = 1 with no resultant
    hxx, hxy = g1.terms.get((1, 0), 0), g1.terms.get((0, 1), 0)
    hyy = g2.terms.get((0, 1), 0)
    if hxx * hyy - hxy * hxy:
        return 1
    rng = random.Random(0)
    # the resultant order can only over-count (a non-generic change drags
    # extra intersections over u = 0), so the certified value is the one the
    # minimum attains in MILNOR_TRIALS changes
    values = []
    for _ in range(4 * MILNOR_TRIALS):
        v = _milnor_once(g1, g2, h.vars, rng)
        if v is None:
            continue  # degenerate change, discarded before counting
        values.append(v)
        if values.count(min(values)) >= MILNOR_TRIALS:
            return min(values)
    raise ArithmeticError(
        f"Milnor number did not stabilize across random changes: {values}"
    )


def _vanishes_at_origin(p: MultiPoly) -> bool:
    return all(any(k != 0 for k in e) for e in p.terms)


def _random_gl2(rng):
    while True:
        a, b, c, d = (Fraction(rng.randint(-9, 9)) for _ in range(4))
        if a * d - b * c != 0:
            return a, b, c, d


def _milnor_once(g1: MultiPoly, g2: MultiPoly, vs, rng) -> int:
    a, b, c, d = _random_gl2(rng)
    uv = ("u", "v")
    u = MultiPoly.var(uv, "u")
    v = MultiPoly.var(uv, "v")
    change = {vs[0]: u * a + v * b, vs[1]: u * c + v * d}
    G1 = g1.substitute(change).in_vars(uv)
    G2 = g2.substitute(change).in_vars(uv)
    for G in (G1, G2):
        lead = G.coeffs_in("v")[-1]
        if not lead.evaluate({"u": Fraction(0), "v": Fraction(0)}):
            return None  # leading v-coefficient dies at u = 0: inflated order
    r = resultant(G1, G2, "v")
    if r.is_zero():
        raise ArithmeticError(
            "the partials share a component: the critical point is not isolated"
        )
    return _weighted_order(r, r.vars)


def hyperplane_section_milnor(f: MultiPoly, a, b) -> int:
    """Milnor number at the origin of f cut by the plane z = a*x + b*y."""
    xy = ("x", "y")
    plane = MultiPoly.var(xy, "x") * Fraction(a) + MultiPoly.var(xy, "y") * Fraction(b)
    g = f.substitute({"z": plane}).in_vars(xy)
    if g.is_zero():
        raise ValueError("the plane is contained in the surface")
    return milnor_number_plane(g, (Fraction(0), Fraction(0)))


@dataclass(frozen=True)
class TangentScanReport:
    min_mu: int
    entries: tuple  # ((a, b, mu), ...)
    jump_set: tuple  # ((a, b), ...) with mu > min_mu
    matches_dual: bool | None = None

    def to_json(self) -> dict:
        out = {
            "min_mu": self.min_mu,
            "samples": len(self.entries),
            "jump_set": [[str(a), str(b)] for a, b in self.jump_set],
        }
        if self.matches_dual is not None:
            out["matches_dual"] = self.matches_dual
        return out


def exceptional_tangent_scan(
    f: MultiPoly, samples=None, dual_predicate=None
) -> TangentScanReport:
    """Milnor numbers of plane sections z = a*x + b*y over a grid of (a, b).

    Sections with the minimal Milnor number are generic; the jump set should
    match the dual predicate (for the quadric zx - y^2: b^2 + 4a = 0).
    """
    if samples is None:
        grid = [Fraction(k) for k in range(-5, 6)]
        samples = [(a, b) for a in grid for b in grid]
    entries = []
    for a, b in samples:
        mu = hyperplane_section_milnor(f, a, b)
        entries.append((Fraction(a), Fraction(b), mu))
    min_mu = min(mu for _, _, mu in entries)
    jumps = tuple((a, b) for a, b, mu in entries if mu > min_mu)
    matches = None
    if dual_predicate is not None:
        expected = tuple(
            (Fraction(a), Fraction(b)) for a, b in samples if dual_predicate(a, b)
        )
        matches = set(jumps) == set(expected)
    return TangentScanReport(min_mu, tuple(entries), jumps, matches)


# -- discriminants ------------------------------------------------------


def discriminant_slice(h: MultiPoly, b) -> MultiPoly:
    """Discriminant of the projection (y, z, t) -> (t, u = y - b*z) on h = 0.

    Shears y = u + b*z, takes Res_z of h with its z-derivative, and strips
    the rational content.  The shear must preserve the z-degree equal to the
    (y, z)-degree of h, otherwise branches escape to infinity and b is
    rejected as degenerate.
    """
    b = Fraction(b)
    target = ("u", "z", "t")
    shear = MultiPoly.var(target, "u") + MultiPoly.var(target, "z") * b
    ht = h.substitute({"y": shear}).in_vars(target)
    dyz = _degree_in_vars(h, ("y", "z"))
    if ht.degree_in("z") < dyz:
        raise ValueError(
            f"degenerate shear b = {b}: the z-degree drops below {dyz}"
        )
    r = resultant(ht, ht.derivative("z"), "z")
    if r.is_zero():
        raise ArithmeticError("h has a repeated factor: the discriminant vanishes")
    return content_free(r.in_vars(("u", "t")))


def _degree_in_vars(p: MultiPoly, graded_vars) -> int:
    idx = [p.vars.index(v) for v in graded_vars if v in p.vars]
    return max(sum(e[i] for i in idx) for e in p.terms)


def unit_normal(p: MultiPoly) -> MultiPoly:
    """Content-free monic representative: equality here is 'up to a constant'."""
    return content_free(p).monic()


def equal_up_to_unit_germ(p: MultiPoly, q: MultiPoly):
    """Is p = q * (unit germ at the origin)?

    Divides exactly and requires the cofactor to have a nonzero constant
    term, i.e. to be invertible in the local ring at 0.  Returns the
    cofactor on success and None on failure.
    """
    from .multipoly import exact_div

    try:
        w = exact_div(p, q)
    except (ValueError, ZeroDivisionError):
        return None
    origin = {v: Fraction(0) for v in w.vars}
    if not w.evaluate(origin):
        return None
    return w


def discriminant_multiplicity_check(h: MultiPoly, b, t0) -> dict:
    """Both sides of mult Delta = sum_i (mu_i + m_i - 1) on the fiber at t0.

    The left side sums root multiplicities of the fiber discriminant at the
    images u0 = y0 - b*z0 of the singular points; the right side sums Milnor
    numbers plus multiplicities minus one over the same points.  The two
    sums are computed independently.
    """
    t0 = Fraction(t0)
    b = Fraction(b)
    fiber = h.substitute({"t": t0}).in_vars(("y", "z"))
    points = _rational_singular_points(fiber, t0)
    delta = discriminant_slice(h, b)
    delta_t0 = delta.substitute({"t": t0}).in_vars(("u",))
    left = 0
    for (y0, z0) in points:
        u0 = y0 - b * z0
        shifted = delta_t0.translate({"u": u0})
        left += _weighted_order(shifted, ("u",))
    right = 0
    for pt in points:
        mu = milnor_number_plane(fiber, pt)
        m = multiplicity_at(fiber, pt)
        right += mu + m - 1
    return {
        "sum_mult_delta": left,
        "sum_mu_plus_m_minus_1": right,
        "equal": left == right,
        "singular_points": [[str(y0), str(z0)] for y0, z0 in points],
    }


def _rational_singular_points(fiber: MultiPoly, t0):
    """All singular points of the fiber curve, certified rational.

    Candidates come from rational roots of elimination resultants; the
    certificate that no singular point was missed is radical membership of
    prod (y - y0) and prod (z - z0) in the Jacobian ideal.
    """
    fy = fiber.derivative("y")
    fz = fiber.derivative("z")
    ys = _rational_root_candidates(fiber, fy, fz, "y", "z")
    zs = _rational_root_candidates(fiber, fy, fz, "z", "y")
    points = []
    for y0 in ys:
        for z0 in zs:
            at = {"y": y0, "z": z0}
            if (
                not fiber.evaluate(at)
                and not fy.evaluate(at)
                and not fz.evaluate(at)
            ):
                points.append((y0, z0))
    jac = Ideal([fiber, fy, fz])
    for name, roots in (("y", sorted(ys)), ("z", sorted(zs))):
        v = MultiPoly.var(("y", "z"), name)
        prod = MultiPoly.constant(("y", "z"), Fraction(1))
        for r in roots:
            prod = prod * (v - MultiPoly.constant(("y", "z"), r))
        ok, _ = radical_membership(prod, jac)
        if not ok:
            raise ArithmeticError(
                f"the fiber at t = {t0} has singular points outside the "
                "rational candidates; choose a perfect-square t0"
            )
    return sorted(points)


def _rational_root_candidates(fiber, fy, fz, keep, eliminate):
    """Rational roots of the resultants eliminating one variable."""
    candidates = set()
    for p in (fiber, fy, fz):
        for q in (fy, fz):
            if p is q:
                continue
            r = resultant(p, q, eliminate)
            if r.is_zero():
                continue
            candidates.update(_rational_roots_univariate(r.in_vars((keep,))))
    return candidates


def _rational_roots_univariate(p: MultiPoly):
    """All rational roots, by the rational root theorem after clearing denominators."""
    from math import lcm

    coeffs = [Fraction(c.constant_value()) for c in p.coeffs_in(p.vars[0])]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    low = next((k for k, c in enumerate(ints) if c != 0), None)
    if low is None:
        raise ArithmeticError("the zero polynomial has every rational root")
    roots = set()
    if low > 0:
        roots.add(Fraction(0))
    a0 = abs(ints[low])
    an = abs(ints[-1])
    for pnum in _divisors(a0):
        for qden in _divisors(an):
            for sign in (1, -1):
                cand = Fraction(sign * pnum, qden)
                if sum(c * cand**k for k, c in enumerate(ints)) == 0:
                    roots.add(cand)
    return roots


def _divisors(n: int):
    n = abs(n)
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
        k += 1
    return sorted(out)


# -- gradient limits along curves ---------------------------------------


@dataclass(frozen=True)
class GradientLimit:
    """Projective limit of the gradient direction along a curve."""

    eta: tuple  # canonical: first nonzero component is 1
    order: int  # common minimal vanishing order of the four partials
    curve: ParamCurve = field(compare=False, repr=False, default=None)

    def to_json(self) -> dict:
        return {
            "eta": [str(c) for c in self.eta],
            "order": self.order,
        }


def _canonical_tuple(values):
    lead = next((c for c in values if c), None)
    if lead is None:
        raise ValueError("all components vanish")
    inv = 1 / lead
    return tuple(c * inv for c in values)


def gradient_limit(F: MultiPoly, curve: ParamCurve) -> GradientLimit:
    """Leading coefficients of (F_x, F_y, F_z, F_t) along the curve.

    The limit direction is read off at the minimal vanishing order among the
    four substituted series; components of strictly higher order contribute
    zero.  If all four series vanish up to the truncation, the truncation
    cannot decide the limit and the call fails asking for a larger one.
    """
    series = []
    orders = []
    for v in FAMILY_VARS:
        part = F.derivative(v) if v in F.vars else MultiPoly.zero(F.vars)
        s = curve.substitute_into(part)
        series.append(s)
        try:
            k, _ = s.order()
            orders.append(k)
        except ZeroToTruncation:
            orders.append(None)
    known = [k for k in orders if k is not None]
    if not known:
        raise TruncationInsufficient(
            "all four gradient components vanish up to the truncation order; "
            "increase truncation"
        )
    m = min(known)
    eta = _canonical_tuple([s.coefficient(m) for s in series])
    return GradientLimit(eta=eta, order=m, curve=curve)


def dual_cone_membership(limit: GradientLimit) -> dict:
    """Which dual cones the limit direction lies on.

    The plane z = 0 has dual point (0 : 0 : 1); the quadric zx - y^2 has
    dual cone 4*eta1*eta3 - eta2^2 = 0.
    """
    e1, e2, e3, e4 = limit.eta
    return {
        "eta4_zero": not e4,
        "on_X1_dual": not e1 and not e2 and bool(e3),
        "on_X2_dual": not (e1 * e3 * 4 - e2 * e2),
    }


def lojasiewicz_orders(F: MultiPoly, curve: ParamCurve) -> dict:
    """Vanishing order of F_t versus the space gradient along the curve.

    A partial whose composition with the curve is exactly zero has infinite
    order (None).  The composition is exact when the curve's components are
    polynomials and T >= deg(partial) * (largest component degree); a
    partial that vanishes only up to a lower truncation raises
    TruncationInsufficient.  The inequality |F_t| <= C * |grad_(x,y,z) F|
    fails along the curve exactly when the left order is strictly smaller.
    """
    data = {}
    for v in FAMILY_VARS:
        part = F.derivative(v) if v in F.vars else MultiPoly.zero(F.vars)
        s = curve.substitute_into(part)
        try:
            data[v] = s.order()
        except ZeroToTruncation:
            exact = part.is_zero() or (
                curve.polynomial
                and part.total_degree() * curve.degree() <= curve.truncation
            )
            if not exact:
                raise TruncationInsufficient(
                    f"dF/d{v} vanishes up to truncation order "
                    f"{curve.truncation} along the curve; increase truncation"
                ) from None
            data[v] = None
    lhs = data["t"]
    rhs_known = [data[v] for v in SPACE_VARS if data[v] is not None]
    rhs = min(rhs_known, key=lambda kv: kv[0]) if rhs_known else None
    order_lhs = lhs[0] if lhs else None
    order_rhs = rhs[0] if rhs else None
    if order_lhs is None:
        fails = False
    elif order_rhs is None:
        fails = True
    else:
        fails = order_lhs < order_rhs
    return {
        "order_lhs": order_lhs,
        "order_rhs": order_rhs,
        "inequality_fails": fails,
        "leading_lhs": str(lhs[1]) if lhs else None,
        "leading_rhs": str(rhs[1]) if rhs else None,
        "component_orders": {
            v: (data[v][0] if data[v] else None) for v in FAMILY_VARS
        },
    }


# -- pinned curves ------------------------------------------------------


def lojasiewicz_test_curve(truncation: int = DEFAULT_TRUNCATION) -> ParamCurve:
    """x = s, y = 0, z = s^4, t = -2s^2: the curve breaking the inequality."""
    return ParamCurve(
        {
            "x": [(1, Fraction(1))],
            "y": [],
            "z": [(4, Fraction(1))],
            "t": [(2, Fraction(-2))],
        },
        truncation,
    )


def curve_on_x2(
    x_terms, y_terms, t_terms, truncation: int = DEFAULT_TRUNCATION
) -> ParamCurve:
    """Curve on the quadric component zx - y^2 + t*x^3 = 0.

    Given series for x, y, t (with x of finite order), the z-component is
    solved exactly as z = (y^2 - t*x^3) / x up to the truncation.
    """
    xs = TruncatedSeries.from_terms(x_terms, truncation)
    ys = TruncatedSeries.from_terms(y_terms, truncation)
    ts = TruncatedSeries.from_terms(t_terms, truncation)
    zs = (ys * ys - ts * xs**3).divide(xs)
    return ParamCurve({"x": xs, "y": ys, "z": zs, "t": ts}, truncation)


def tangency_curve(
    alpha1, alpha2, alpha3, beta3, gamma, truncation: int = DEFAULT_TRUNCATION
) -> ParamCurve:
    """The five-parameter test curve for the gradient-limit formula.

    x = s, y = gamma*s^3, z = alpha1*s^3 + alpha2*s^4 + alpha3*s^5,
    t = beta1*s + beta2*s^2 + beta3*s^3 with beta1 = -2*alpha1 and
    beta2 = -2*alpha2 so that the low-order gradient terms cancel.
    """
    a1, a2, a3 = Fraction(alpha1), Fraction(alpha2), Fraction(alpha3)
    b3, g = Fraction(beta3), Fraction(gamma)
    if a1 == 0:
        raise ValueError("alpha1 must be nonzero for the limit formula")
    return ParamCurve(
        {
            "x": [(1, Fraction(1))],
            "y": [(3, g)],
            "z": [(3, a1), (4, a2), (5, a3)],
            "t": [(1, -2 * a1), (2, -2 * a2), (3, b3)],
        },
        truncation,
    )


def tangency_limit_formula(alpha1, alpha2, alpha3, beta3, gamma) -> tuple:
    """Closed form (-5*a1 : -2*g : (2*a3 + b3 - g^2)/a1 : 1), canonicalized."""
    a1, a3 = Fraction(alpha1), Fraction(alpha3)
    b3, g = Fraction(beta3), Fraction(gamma)
    return _canonical_tuple(
        [-5 * a1, -2 * g, (2 * a3 + b3 - g * g) / a1, Fraction(1)]
    )
