"""Exact arithmetic in the real quartic field Q(alpha), alpha = sqrt(10+2*sqrt(5)).

An element c0 + c1*alpha + c2*alpha^2 + c3*alpha^3 is stored as four integer
numerators over one positive integer denominator, kept in lowest terms (the
gcd of the numerators and the denominator is 1), so equality and hashing
compare integers.  Multiplication reduces by alpha^4 = 20*alpha^2 - 80, the
minimal polynomial x^4 - 20x^2 + 80 (re-derived by minimal_polynomial in the
test suite).  Q(alpha)/Q is cyclic of degree 4, so the inverse is the product
of the three nontrivial conjugates divided by the norm; each automorphism acts
as a precomputed integer 4x4 matrix over a common denominator.  The rational
coordinates are available as `coords` for serialization and the real
embedding, which sends alpha to the positive root in [3.8, 3.9]; real_value
produces certified rational intervals for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

# x^4 - 20 x^2 + 80, ascending coefficients
MINPOLY_COEFFS = (Fraction(80), Fraction(0), Fraction(-20), Fraction(0), Fraction(1))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def _make(num: tuple, den: int) -> "AlgebraicNumber":
    """Wrap numerators and a denominator that are already in lowest terms."""
    x = object.__new__(AlgebraicNumber)
    x.num = num
    x.den = den
    return x


def _reduced(n0: int, n1: int, n2: int, n3: int, den: int) -> "AlgebraicNumber":
    """Lowest terms with a positive denominator; den must be nonzero."""
    g = gcd(n0, n1, n2, n3, den)
    if den < 0:
        g = -g
    if g != 1:
        n0 //= g
        n1 //= g
        n2 //= g
        n3 //= g
        den //= g
    return _make((n0, n1, n2, n3), den)


def _coerce(other):
    if isinstance(other, AlgebraicNumber):
        return other
    if isinstance(other, int):
        return _make((other, 0, 0, 0), 1)
    if isinstance(other, Fraction):
        return _make((other.numerator, 0, 0, 0), other.denominator)
    return None


def _mul(a: "AlgebraicNumber", b: "AlgebraicNumber") -> "AlgebraicNumber":
    a0, a1, a2, a3 = a.num
    b0, b1, b2, b3 = b.num
    p4 = a1 * b3 + a2 * b2 + a3 * b1
    p5 = a2 * b3 + a3 * b2
    p6 = a3 * b3
    # alpha^4 = 20 alpha^2 - 80, alpha^5 = 20 alpha^3 - 80 alpha,
    # alpha^6 = 320 alpha^2 - 1600
    return _reduced(
        a0 * b0 - 80 * p4 - 1600 * p6,
        a0 * b1 + a1 * b0 - 80 * p5,
        a0 * b2 + a1 * b1 + a2 * b0 + 20 * p4 + 320 * p6,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + 20 * p5,
        a.den * b.den,
    )


def _apply_matrix(matrix, a: "AlgebraicNumber") -> "AlgebraicNumber":
    """Image of a under the linear map (rows, den) in the power basis."""
    rows, den = matrix
    a0, a1, a2, a3 = a.num
    return _reduced(
        *[m0 * a0 + m1 * a1 + m2 * a2 + m3 * a3 for m0, m1, m2, m3 in rows],
        den * a.den,
    )


class AlgebraicNumber:
    """An element c0 + c1*alpha + c2*alpha^2 + c3*alpha^3 with rational ci.

    `num` holds the four integer numerators and `den` the positive common
    denominator, in lowest terms.  Instances are immutable by convention.
    """

    __slots__ = ("num", "den")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        cs = [_as_fraction(c) for c in (c0, c1, c2, c3)]
        # over the lcm of lowest-terms denominators no common factor remains
        den = lcm(*(c.denominator for c in cs))
        self.num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "AlgebraicNumber":
        return cls(_as_fraction(q))

    @classmethod
    def alpha(cls) -> "AlgebraicNumber":
        return cls(0, 1)

    @classmethod
    def sqrt5(cls) -> "AlgebraicNumber":
        # alpha^2 = 10 + 2*sqrt(5)  =>  sqrt(5) = (alpha^2 - 10)/2
        return cls(Fraction(-5), 0, Fraction(1, 2), 0)

    @classmethod
    def beta(cls) -> "AlgebraicNumber":
        """sqrt(10 - 2*sqrt(5)) = 2*(alpha^2 - 10)/alpha = (alpha^3 - 12*alpha)/4.

        alpha*beta = sqrt(80) = 4*sqrt(5); galois_group verifies that beta
        is a root of the minimal polynomial.
        """
        return cls(0, -3, 0, Fraction(1, 4))

    @property
    def coords(self) -> tuple:
        """The four rational coordinates in the power basis, reduced."""
        d = self.den
        return tuple(Fraction(n, d) for n in self.num)

    # -- predicates ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        _, n1, n2, n3 = self.num
        return not (n1 or n2 or n3)

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __bool__(self) -> bool:
        return any(self.num)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self.num
        b0, b1, b2, b3 = o.num
        da, db = self.den, o.den
        if da == db:
            return _reduced(a0 + b0, a1 + b1, a2 + b2, a3 + b3, da)
        return _reduced(
            a0 * db + b0 * da,
            a1 * db + b1 * da,
            a2 * db + b2 * da,
            a3 * db + b3 * da,
            da * db,
        )

    __radd__ = __add__

    def __neg__(self):
        n0, n1, n2, n3 = self.num
        return _make((-n0, -n1, -n2, -n3), self.den)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _mul(self, o)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        """Multiplicative inverse sigma(a) sigma^2(a) sigma^3(a) / N(a)."""
        if not self:
            raise ZeroDivisionError("inverse of zero algebraic number")
        n0, n1, n2, n3 = self.num
        if not (n1 or n2 or n3):
            return _reduced(self.den, 0, 0, 0, n0)
        s1, s2, s3 = (_apply_matrix(g.matrix, self) for g in galois_group()[1:])
        conj = _mul(_mul(s1, s2), s3)
        norm = _mul(self, conj)  # rational: fixed by every automorphism
        c0, c1, c2, c3 = conj.num
        f = norm.den
        return _reduced(c0 * f, c1 * f, c2 * f, c3 * f, conj.den * norm.num[0])

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = AlgebraicNumber(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"AlgebraicNumber{self.coords}"

    def __str__(self):
        coords = self.coords
        if self.is_rational:
            return str(coords[0])
        parts = []
        names = ["", "a", "a^2", "a^3"]
        for c, n in zip(coords, names):
            if c == 0:
                continue
            parts.append(f"{c}{'*' + n if n else ''}")
        return " + ".join(parts) if parts else "0"

    # -- serialization ------------------------------------------------

    def to_json(self) -> list:
        return [f"{c.numerator}/{c.denominator}" for c in self.coords]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "AlgebraicNumber":
        if len(data) != 4:
            raise ValueError("expected 4 coordinate strings")
        return cls(*(Fraction(s) for s in data))


def _as_number(x):
    """Coerce ints to Fraction; pass exact field elements through."""
    if isinstance(x, int):
        return Fraction(x)
    return x


def solve_linear(rows, rhs):
    """Solve an exact linear system by Gaussian elimination.

    Entries may be Fraction or AlgebraicNumber (any exact field elements
    supporting +, -, *, / and == 0).  rows is a list of m rows of length n,
    rhs has length m; returns one solution (free variables set to 0) or None
    if inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[_as_number(x) for x in row] + [_as_number(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = a[i][n]
    return sol


def minimal_polynomial(a: AlgebraicNumber) -> list:
    """Monic minimal polynomial of a over Q, ascending coefficient list.

    Found by exact linear algebra on the power vectors 1, a, a^2, ...: the
    first power lying in the span of the previous ones determines the degree.
    """
    powers = [AlgebraicNumber(1)]
    for k in range(1, 5):
        powers.append(powers[-1] * a)
        # is powers[k] a combination of powers[0..k-1]?
        rows = [[powers[j].coords[i] for j in range(k)] for i in range(4)]
        rhs = list(powers[k].coords)
        sol = solve_linear(rows, rhs)
        if sol is not None:
            # a^k - sum sol_j a^j = 0
            coeffs = [-s for s in sol] + [Fraction(1)]
            return coeffs
    raise AssertionError("no relation of degree <= 4 (field is degree 4)")


def eval_poly(coeffs, x):
    """Evaluate an ascending coefficient list at x (Horner)."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _power_matrix(image: AlgebraicNumber) -> tuple:
    """(rows, den): column k holds den * image^k in the power basis."""
    powers = [AlgebraicNumber(1)]
    for _ in range(3):
        powers.append(_mul(powers[-1], image))
    den = lcm(*(p.den for p in powers))
    cols = [[n * (den // p.den) for n in p.num] for p in powers]
    rows = tuple(tuple(col[i] for col in cols) for i in range(4))
    return rows, den


@dataclass(frozen=True)
class GaloisElement:
    """Field automorphism of Q(alpha) determined by the image of alpha."""

    index: int
    image_of_alpha: AlgebraicNumber
    matrix: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _power_matrix(self.image_of_alpha))

    def apply(self, a: AlgebraicNumber) -> AlgebraicNumber:
        return _apply_matrix(self.matrix, a)

    def __call__(self, a: AlgebraicNumber) -> AlgebraicNumber:
        return self.apply(a)

    @property
    def name(self) -> str:
        return f"sigma{self.index}"


_GALOIS_CACHE = None


def galois_group() -> list:
    """The four automorphisms of Q(alpha), identity first.

    The roots of the minimal polynomial of alpha inside the field are
    +-alpha and +-beta with beta = sqrt(10 - 2*sqrt(5)); each candidate is
    verified exactly against the quartic, and the composition table is
    checked to be closed.
    """
    global _GALOIS_CACHE
    if _GALOIS_CACHE is not None:
        return _GALOIS_CACHE
    alpha = AlgebraicNumber.alpha()
    beta = AlgebraicNumber.beta()
    candidates = [alpha, -alpha, beta, -beta]
    roots = []
    for r in candidates:
        if eval_poly(MINPOLY_COEFFS, r):
            continue
        if r not in roots:
            roots.append(r)
    if len(roots) != 4:
        raise RuntimeError(
            "expected 4 roots of the quartic inside the field, found "
            f"{len(roots)}; normality would be falsified"
        )
    elements = [GaloisElement(i, r) for i, r in enumerate(roots)]
    # closure of the composition table
    images = {e.image_of_alpha for e in elements}
    for s in elements:
        for t in elements:
            if s.apply(t.image_of_alpha) not in images:
                raise RuntimeError("Galois composition table is not closed")
    _GALOIS_CACHE = elements
    return elements


def galois_orbit(a: AlgebraicNumber) -> list:
    return [g.apply(a) for g in galois_group()]


# -- certified real embedding -----------------------------------------


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi] certified to contain a real value."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        prods = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Interval(min(prods), max(prods))

    def scale(self, q: Fraction) -> "Interval":
        if q >= 0:
            return Interval(self.lo * q, self.hi * q)
        return Interval(self.hi * q, self.lo * q)

    def __float__(self) -> float:
        return float(self.mid)


def _alpha_bracket(n_bisections: int) -> Interval:
    # x^4 - 20x^2 + 80 is negative at 3.8, positive at 3.9
    lo, hi = Fraction(38, 10), Fraction(39, 10)
    for _ in range(n_bisections):
        mid = (lo + hi) / 2
        if eval_poly(MINPOLY_COEFFS, mid) < 0:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def real_value(a: AlgebraicNumber, precision: int) -> Interval:
    """Certified interval of width <= 10^-precision around the real value of a."""
    if precision <= 0:
        raise ValueError("precision must be positive")
    target = Fraction(1, 10**precision)
    n = 8
    while True:
        alpha_iv = _alpha_bracket(n)
        acc = Interval(a.coords[0], a.coords[0])
        pw = Interval(Fraction(1), Fraction(1))
        for c in a.coords[1:]:
            pw = pw * alpha_iv
            if c != 0:
                acc = acc + pw.scale(c)
        if acc.width <= target:
            return acc
        n *= 2


def to_float(a: AlgebraicNumber, precision: int = 12) -> float:
    return float(real_value(a, precision))
