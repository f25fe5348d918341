"""Pentagon line arrangements over the quartic field.

Two realizations of the same configuration are used, one per purpose.

For the variants C and APRIME the regular pentagon is placed with its center
at the origin and one vertex at (1, 0); the other four vertices sit at
72-degree steps with coordinates in Q(alpha), labeled

    C at 72deg, B at 144deg, A at 216deg, D at 288deg,  K = (1, 0),  I = (0, 0).

This labeling is validated by the weight tests (histogram {4:3, 3:6, 2:9} for
the 10-line arrangement); build_arrangement aborts with LabelingError if the
validation fails.

For CPRIME and RATIONAL10 a projectively equivalent model is used whose line
set is carried onto itself by every field automorphism, which makes the
defining polynomials rational.  The regular-pentagon model does *not* have
this property: an automorphism that conjugates sqrt(5) doubles the vertex
angles, so it maps pentagon edges onto pentagon diagonals and moves the line
set off itself.  The equivariant model is found by Galois descent: put the
weight-4 point I at the origin, give the four pencil lines the slope orbit of
alpha + beta under an order-4 automorphism sigma, fix the rational line AB:
x = 1, and choose the remaining free point C on CI so that E, C, sigma(C) are
collinear.  Writing C = (mC*t, t), the collinearity condition is linear in
u = 1/t, and the solution family contains nondegenerate points exactly
because Norm(sigma(m) - m) = Norm(m - sigma^2(m)) for m = alpha + beta.  All
incidences, the weight pattern and the setwise Galois invariance are
re-verified during construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import AlgebraicNumber, solve_linear, galois_group
from .multipoly import MultiPoly


class LabelingError(Exception):
    """The fixed vertex labeling failed its weight-classification validation."""


def _alg(x) -> AlgebraicNumber:
    if isinstance(x, AlgebraicNumber):
        return x
    return AlgebraicNumber(x)


class ProjPoint:
    """Point of the projective plane, canonical first-nonzero-is-1 scaling."""

    __slots__ = ("coords",)

    def __init__(self, X, Y, Z):
        coords = (_alg(X), _alg(Y), _alg(Z))
        if not any(coords):
            raise ValueError("projective point needs a nonzero coordinate")
        pivot = next(c for c in coords if c)
        inv = pivot.inverse()
        self.coords = tuple(c * inv for c in coords)

    @classmethod
    def affine(cls, x, y) -> "ProjPoint":
        return cls(x, y, AlgebraicNumber(1))

    @property
    def is_affine(self) -> bool:
        return bool(self.coords[2])

    def affine_xy(self):
        X, Y, Z = self.coords
        if not Z:
            raise ValueError("point at infinity has no affine coordinates")
        zi = Z.inverse()
        return X * zi, Y * zi

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"ProjPoint({', '.join(str(c) for c in self.coords)})"

    def to_json(self):
        return [c.to_json() for c in self.coords]


class ProjLine:
    """Line with dual coordinates (u:v:w); incidence is uX + vY + wZ = 0."""

    __slots__ = ("coords",)

    def __init__(self, u, v, w):
        coords = (_alg(u), _alg(v), _alg(w))
        if not any(coords):
            raise ValueError("projective line needs a nonzero coordinate")
        pivot = next(c for c in coords if c)
        inv = pivot.inverse()
        self.coords = tuple(c * inv for c in coords)

    def contains(self, p: ProjPoint) -> bool:
        u, v, w = self.coords
        X, Y, Z = p.coords
        return not (u * X + v * Y + w * Z)

    def affine_normal_form(self):
        """('x', b, a) meaning x - b*y - a, or ('y', c) meaning y - c."""
        u, v, w = self.coords
        if u:
            inv = u.inverse()
            return ("x", -(v * inv), -(w * inv))
        if not v:
            raise ValueError("the line at infinity has no affine normal form")
        inv = v.inverse()
        return ("y", -(w * inv))

    def normal_polynomial(self) -> MultiPoly:
        nf = self.affine_normal_form()
        xy = ("x", "y")
        x = MultiPoly.var(xy, "x")
        y = MultiPoly.var(xy, "y")
        if nf[0] == "x":
            _, b, a = nf
            return x - y * b - MultiPoly.constant(xy, a)
        _, c = nf
        return y - MultiPoly.constant(xy, c)

    def apply_galois(self, sigma) -> "ProjLine":
        return ProjLine(*(sigma(c) for c in self.coords))

    def __eq__(self, other):
        return isinstance(other, ProjLine) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"ProjLine({', '.join(str(c) for c in self.coords)})"

    def to_json(self):
        return [c.to_json() for c in self.coords]


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    if p == q:
        raise ValueError("two distinct points are required")
    (x1, y1, z1), (x2, y2, z2) = p.coords, q.coords
    return ProjLine(
        y1 * z2 - z1 * y2,
        z1 * x2 - x1 * z2,
        x1 * y2 - y1 * x2,
    )


def intersect(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    if l1 == l2:
        raise ValueError("lines coincide")
    (u1, v1, w1), (u2, v2, w2) = l1.coords, l2.coords
    return ProjPoint(
        v1 * w2 - w1 * v2,
        w1 * u2 - u1 * w2,
        u1 * v2 - v1 * u2,
    )


@dataclass(frozen=True)
class LatticePoint:
    point: ProjPoint
    incident: frozenset  # line labels
    label: str | None = None

    @property
    def weight(self) -> int:
        return len(self.incident)


@dataclass(frozen=True)
class Arrangement:
    variant: str
    lines: tuple  # (label, ProjLine) pairs, order fixed
    lattice: tuple  # LatticePoints

    def line(self, label: str) -> ProjLine:
        for lab, l in self.lines:
            if lab == label:
                return l
        raise KeyError(f"no line labeled {label!r}")

    @property
    def labels(self):
        return [lab for lab, _ in self.lines]

    def weight_histogram(self) -> dict:
        hist = {}
        for p in self.lattice:
            hist[p.weight] = hist.get(p.weight, 0) + 1
        return hist

    def points_at_infinity(self):
        return [p for p in self.lattice if not p.point.is_affine]

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "lines": [
                {"label": lab, "coords": l.to_json()} for lab, l in self.lines
            ],
            "points": [
                {
                    **({"label": p.label} if p.label else {}),
                    "coords": p.point.to_json(),
                    "incident": sorted(p.incident),
                    "weight": p.weight,
                }
                for p in self.lattice
            ],
        }


# -- pentagon construction --------------------------------------------


def _unit_circle_point(k: int) -> ProjPoint:
    """The point at angle 72k degrees, coordinates in Q(alpha)."""
    alpha = AlgebraicNumber.alpha()
    s5 = AlgebraicNumber.sqrt5()
    beta = AlgebraicNumber.beta()
    quarter = Fraction(1, 4)
    cos72 = (s5 - 1) * quarter
    sin72 = alpha * quarter
    cos144 = -(s5 + 1) * quarter
    sin144 = beta * quarter
    table = {
        0: (AlgebraicNumber(1), AlgebraicNumber(0)),
        1: (cos72, sin72),
        2: (cos144, sin144),
        3: (cos144, -sin144),
        4: (cos72, -sin72),
    }
    x, y = table[k % 5]
    return ProjPoint.affine(x, y)


def build_pentagon_points() -> dict:
    """Labeled pentagon points for the 9/10-line family: I, K, A, B, C, D."""
    return {
        "I": ProjPoint.affine(0, 0),
        "K": _unit_circle_point(0),
        "C": _unit_circle_point(1),
        "B": _unit_circle_point(2),
        "A": _unit_circle_point(3),
        "D": _unit_circle_point(4),
    }


def _compute_lattice(lines) -> list:
    """All pairwise intersections, deduped exactly, with full incidence sets."""
    seen = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            p = intersect(lines[i][1], lines[j][1])
            if p not in seen:
                incident = frozenset(
                    lab for lab, l in lines if l.contains(p)
                )
                seen[p] = incident
    return [LatticePoint(p, inc) for p, inc in seen.items()]


def _attach_labels(lattice, named_points) -> tuple:
    by_point = {}
    for name, p in named_points.items():
        by_point.setdefault(p, name)
    return tuple(
        LatticePoint(lp.point, lp.incident, by_point.get(lp.point))
        for lp in lattice
    )


VARIANTS = ("C", "CPRIME", "APRIME", "RATIONAL10")

_ARRANGEMENT_CACHE: dict = {}


def build_arrangement(variant: str) -> Arrangement:
    """The named arrangement, built and validated once per process.

    Arrangements are immutable, so every call for a variant returns the
    same object.
    """
    variant = variant.upper()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    arr = _ARRANGEMENT_CACHE.get(variant)
    if arr is None:
        if variant == "C":
            arr = _build_variant_c()
        elif variant == "APRIME":
            arr = _build_aprime()
        else:
            arr = _build_equivariant(variant)
        _ARRANGEMENT_CACHE[variant] = arr
    return arr


def _build_aprime() -> Arrangement:
    """The 10-line arrangement A' on the regular pentagon, labels validated."""
    pts = build_pentagon_points()
    I, A, B, C, D = pts["I"], pts["A"], pts["B"], pts["C"], pts["D"]
    lines = [
        ("AB", line_through(A, B)),
        ("BC", line_through(B, C)),
        ("AD", line_through(A, D)),
        ("AI", line_through(A, I)),
        ("BI", line_through(B, I)),
        ("CI", line_through(C, I)),
        ("DI", line_through(D, I)),
    ]
    by = dict(lines)
    E = intersect(by["AB"], by["DI"])
    F = intersect(by["AB"], by["CI"])
    lines.append(("EC", line_through(E, C)))
    lines.append(("FD", line_through(F, D)))
    by = dict(lines)
    named = dict(pts)
    named.update({"E": E, "F": F})
    named["G"] = intersect(by["BI"], by["AD"])
    named["H"] = intersect(by["AI"], by["BC"])
    named["J"] = intersect(by["AD"], by["BC"])
    named["a"] = intersect(by["AI"], by["EC"])
    named["b"] = intersect(by["BI"], by["FD"])
    named["c"] = intersect(by["AD"], by["CI"])
    named["d"] = intersect(by["BC"], by["DI"])
    H = named["H"]
    lines.append(("HE", line_through(H, E)))
    by = dict(lines)
    named["R1"] = intersect(by["BI"], by["HE"])
    named["R2"] = intersect(by["CI"], by["HE"])
    named["R_inf"] = intersect(by["AD"], by["HE"])
    lattice = _attach_labels(_compute_lattice(lines), named)
    arr = Arrangement("APRIME", tuple(lines), lattice)
    _validate_labeling(arr)
    return arr


def _descent_sigma():
    """The order-4 automorphism with sigma(alpha) = -beta."""
    alpha = AlgebraicNumber.alpha()
    beta = AlgebraicNumber.beta()
    for g in galois_group():
        if g.apply(alpha) == -beta:
            return g
    raise RuntimeError("quartic field lost its order-4 automorphism?")


def _build_equivariant(variant: str) -> Arrangement:
    """The 9-line arrangement in its Galois-stable projective position."""
    alpha = AlgebraicNumber.alpha()
    beta = AlgebraicNumber.beta()
    sigma = _descent_sigma()
    m_a = alpha + beta
    m_c = sigma.apply(m_a)
    m_b = sigma.apply(m_c)
    m_d = sigma.apply(m_b)
    # solution of the descent equation for C = (m_c * t, t), t = 1/u
    u = AlgebraicNumber(0, -21, 0, 1)  # alpha^3 - 21*alpha
    t = u.inverse()
    one = AlgebraicNumber(1)

    def sigma_point(p: ProjPoint) -> ProjPoint:
        return ProjPoint(*(sigma.apply(c) for c in p.coords))

    I = ProjPoint.affine(0, 0)
    A = ProjPoint.affine(one, m_a.inverse())
    B = ProjPoint.affine(one, m_b.inverse())
    E = ProjPoint.affine(one, m_d.inverse())
    F = ProjPoint.affine(one, m_c.inverse())
    C = ProjPoint.affine(m_c * t, t)
    G = sigma_point(C)
    D = sigma_point(G)
    H = sigma_point(D)
    lines = [
        ("AB", line_through(A, B)),
        ("BC", line_through(B, C)),
        ("AD", line_through(A, D)),
        ("AI", line_through(A, I)),
        ("BI", line_through(B, I)),
        ("CI", line_through(C, I)),
        ("DI", line_through(D, I)),
        ("EC", line_through(E, C)),
        ("FD", line_through(F, D)),
    ]
    by = dict(lines)
    named = {"I": I, "A": A, "B": B, "C": C, "D": D, "E": E, "F": F,
             "G": G, "H": H}
    named["J"] = intersect(by["AD"], by["BC"])
    named["K"] = intersect(by["EC"], by["FD"])
    named["a"] = intersect(by["AI"], by["EC"])
    named["b"] = intersect(by["BI"], by["FD"])
    named["c"] = intersect(by["AD"], by["CI"])
    named["d"] = intersect(by["BC"], by["DI"])
    if variant == "RATIONAL10":
        lines.append(("JK", line_through(named["J"], named["K"])))
    lattice = _attach_labels(_compute_lattice(lines), named)
    arr = Arrangement(variant, tuple(lines), lattice)
    _validate_equivariant(arr, variant)
    return arr


def _validate_equivariant(arr: Arrangement, variant: str):
    lines = {l for _, l in arr.lines}
    if len(lines) != len(arr.lines):
        raise LabelingError("equivariant model produced coincident lines")
    for sigma in galois_group():
        if {l.apply_galois(sigma) for l in lines} != lines:
            raise LabelingError(
                f"line set not stable under {sigma.name} (descent failed)"
            )
    hist = arr.weight_histogram()
    if variant == "CPRIME" and hist != {4: 1, 3: 8, 2: 6}:
        raise LabelingError(f"CPRIME weight histogram {hist} unexpected")


def _validate_labeling(arr: Arrangement):
    hist = arr.weight_histogram()
    if hist != {4: 3, 3: 6, 2: 9}:
        raise LabelingError(f"weight histogram {hist} != {{4: 3, 3: 6, 2: 9}}")
    w4 = sorted(p.label or "?" for p in arr.lattice if p.weight == 4)
    if w4 != ["E", "H", "I"]:
        raise LabelingError(f"weight-4 points {w4} are not I, H, E")
    if len(arr.points_at_infinity()) != 1:
        raise LabelingError("expected exactly one lattice point at infinity")


def _build_variant_c():
    """The companion 9-line arrangement, from its picture (rotated alike)."""
    I = ProjPoint.affine(0, 0)
    J = _unit_circle_point(0)
    H = _unit_circle_point(1)
    F = _unit_circle_point(2)
    E = _unit_circle_point(3)
    G = _unit_circle_point(4)
    lines = [
        ("EF", line_through(E, F)),
        ("FH", line_through(F, H)),
        ("EG", line_through(E, G)),
        ("EI", line_through(E, I)),
        ("FI", line_through(F, I)),
        ("HI", line_through(H, I)),
        ("GI", line_through(G, I)),
    ]
    by = dict(lines)
    B = intersect(by["EF"], by["GI"])
    A = intersect(by["EF"], by["HI"])
    lines.append(("BH", line_through(B, H)))
    lines.append(("AG", line_through(A, G)))
    by = dict(lines)
    named = {
        "I": I, "J": J, "H": H, "F": F, "E": E, "G": G, "A": A, "B": B,
        "C": intersect(by["FI"], by["EG"]),
        "D": intersect(by["EI"], by["FH"]),
        "K": intersect(by["EG"], by["FH"]),
    }
    lattice = _attach_labels(_compute_lattice(lines), named)
    return Arrangement("C", tuple(lines), lattice)


# -- per-line and pencil queries --------------------------------------


def line_weight_profile(arr: Arrangement, label: str) -> list:
    """Sorted multiset of lattice-point weights along the labeled line."""
    arr.line(label)  # raises on unknown label
    return sorted(p.weight for p in arr.lattice if label in p.incident)


CROSS_RATIO_INFINITY = "infinity"


def cross_ratio(lines):
    """Cross-ratio of four distinct concurrent lines.

    Computed from the intersections with a fixed transversal avoiding the
    pencil's center; returns an AlgebraicNumber, or CROSS_RATIO_INFINITY.
    """
    if len(lines) != 4:
        raise ValueError("a pencil of exactly 4 lines is required")
    if len(set(lines)) != 4:
        raise ValueError("pencil lines must be pairwise distinct")
    center = intersect(lines[0], lines[1])
    for l in lines[2:]:
        if not l.contains(center):
            raise ValueError("lines are not concurrent")
    transversal = _pick_transversal(center, lines)
    pts = [intersect(transversal, l) for l in lines]
    q0, q1 = _two_points_on(transversal)
    coords = []
    for p in pts:
        rows = [[q0.coords[i], q1.coords[i]] for i in range(3)]
        sol = solve_linear(rows, list(p.coords))
        assert sol is not None, "intersection point not on the transversal?"
        coords.append((sol[0], sol[1]))
    d = lambda i, j: coords[i][0] * coords[j][1] - coords[j][0] * coords[i][1]
    num = d(0, 2) * d(1, 3)
    den = d(0, 3) * d(1, 2)
    if not den:
        return CROSS_RATIO_INFINITY
    return num * den.inverse()


def _pick_transversal(center: ProjPoint, lines) -> ProjLine:
    for c in range(1, 50):
        cand = ProjLine(1, Fraction(c), Fraction(c * c + 1))
        if not cand.contains(center) and cand not in lines:
            return cand
    raise RuntimeError("no transversal found (cannot happen)")


def _two_points_on(line: ProjLine):
    u, v, w = line.coords
    pts = []
    # intersect with two coordinate lines not equal to `line`
    for other in (ProjLine(0, 1, 0), ProjLine(0, 0, 1), ProjLine(1, 0, 0)):
        if other == line:
            continue
        try:
            p = intersect(line, other)
        except ValueError:
            continue
        if p not in pts:
            pts.append(p)
        if len(pts) == 2:
            return pts
    raise RuntimeError("could not find two points on the line")


# -- incidence automorphisms ------------------------------------------


def incidence_automorphisms(arr: Arrangement) -> list:
    """All line bijections inducing an incidence-preserving point bijection.

    Backtracking over line images, pruned by per-line weight profiles and by
    pairwise meet-weight consistency.  Returns a list of dicts label->label.
    """
    labels = arr.labels
    n = len(labels)
    profile = {lab: tuple(line_weight_profile(arr, lab)) for lab in labels}
    incidence_sets = {p.incident for p in arr.lattice}
    weight_of_pair = {}
    for p in arr.lattice:
        inc = sorted(p.incident)
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                weight_of_pair[(inc[i], inc[j])] = p.weight

    def pair_weight(a, b):
        key = (a, b) if a <= b else (b, a)
        return weight_of_pair.get(key)

    candidates = {
        lab: [m for m in labels if profile[m] == profile[lab]] for lab in labels
    }
    results = []
    assignment = {}
    used = set()

    def consistent(lab, img):
        for prev, pimg in assignment.items():
            if pair_weight(lab, prev) != pair_weight(img, pimg):
                return False
        return True

    def backtrack(k):
        if k == n:
            perm = dict(assignment)
            for inc in incidence_sets:
                if frozenset(perm[l] for l in inc) not in incidence_sets:
                    return
            results.append(perm)
            return
        lab = labels[k]
        for img in candidates[lab]:
            if img in used or not consistent(lab, img):
                continue
            assignment[lab] = img
            used.add(img)
            backtrack(k + 1)
            used.discard(img)
            del assignment[lab]

    backtrack(0)
    results.sort(key=lambda perm: tuple(perm[l] for l in labels))
    return results


# -- defining polynomials and Galois action ---------------------------


def defining_polynomial(arr: Arrangement) -> MultiPoly:
    """Product of the normalized affine line forms; degree = number of lines."""
    prod = MultiPoly.constant(("x", "y"), Fraction(1))
    for lab, line in arr.lines:
        try:
            prod = prod * line.normal_polynomial()
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lab!r} has no affine normal form") from exc
    return prod


@dataclass
class GaloisInvarianceReport:
    is_rational: bool
    violating_sigma: object = None  # GaloisElement with sigma(p) != p
    differing_monomial: tuple | None = None

    def witness(self) -> dict:
        out = {"is_rational": self.is_rational}
        if self.violating_sigma is not None:
            out["violating_sigma"] = self.violating_sigma.name
            out["sigma_image_of_alpha"] = self.violating_sigma.image_of_alpha.to_json()
        if self.differing_monomial is not None:
            out["differing_monomial"] = list(self.differing_monomial)
        return out


def galois_invariance(p: MultiPoly) -> GaloisInvarianceReport:
    """Apply each automorphism coefficient-wise; rational iff all fix p."""
    for sigma in galois_group()[1:]:
        moved = p.map_coeffs(lambda c: sigma(_alg(c)))
        if moved != p:
            diff = moved - p
            mono = max(diff.terms, key=lambda e: sum(e))
            return GaloisInvarianceReport(False, sigma, mono)
    if not p.has_rational_coeffs():
        # cannot happen for the fixed field of the full group
        raise AssertionError("G-invariant polynomial with irrational coefficient")
    return GaloisInvarianceReport(True)


def galois_line_action_permutes(arr: Arrangement, sigma) -> bool:
    """Does sigma map the arrangement's line set onto itself?"""
    lines = {l for _, l in arr.lines}
    return {l.apply_galois(sigma) for l in lines} == lines
