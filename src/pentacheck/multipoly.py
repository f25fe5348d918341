"""Sparse multivariate polynomials with exact rational or algebraic coefficients.

Coefficients are Fraction or AlgebraicNumber; terms map exponent tuples to
nonzero coefficients.  Monomial comparisons use graded reverse lexicographic
order with respect to the declared variable order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .field import AlgebraicNumber


def grevlex_key(exp):
    """Sort key: ascending order is ascending grevlex."""
    return (sum(exp),) + tuple(-e for e in reversed(exp))


class MultiPoly:
    """Immutable sparse polynomial over Q or the quartic field."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        clean = {}
        for exp, c in terms.items():
            if len(exp) != len(self.vars):
                raise ValueError("exponent length does not match variable registry")
            if c:
                clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c):
        if isinstance(c, int):
            c = Fraction(c)  # keep 1 / c exact for coefficients
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exp = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exp: Fraction(1)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        z = (0,) * len(self.vars)
        return self.terms.get(z, Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def _index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def leading_term(self):
        """(exponent, coefficient) of the grevlex-largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grevlex_key)
        return exp, self.terms[exp]

    def coefficients(self):
        return list(self.terms.values())

    def has_rational_coeffs(self) -> bool:
        return all(
            not isinstance(c, AlgebraicNumber) or c.is_rational
            for c in self.terms.values()
        )

    # -- registry handling --------------------------------------------

    def in_vars(self, variables) -> "MultiPoly":
        """Re-express in a registry containing all current variables."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        pos = []
        for i, v in enumerate(self.vars):
            if v not in variables:
                # allowed only if the variable never occurs
                if any(e[i] for e in self.terms):
                    raise ValueError(f"variable {v!r} missing from target registry")
                pos.append(None)
            else:
                pos.append(variables.index(v))
        terms = {}
        for e, c in self.terms.items():
            new = [0] * len(variables)
            for i, p in enumerate(pos):
                if p is not None:
                    new[p] = e[i]
            terms[tuple(new)] = c
        return MultiPoly(variables, terms)

    @staticmethod
    def merge_vars(a: "MultiPoly", b: "MultiPoly"):
        if a.vars == b.vars:
            return a, b
        merged = list(a.vars)
        for v in b.vars:
            if v not in merged:
                merged.append(v)
        merged = tuple(merged)
        return a.in_vars(merged), b.in_vars(merged)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return MultiPoly.constant(self.vars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = MultiPoly.merge_vars(self, o)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return MultiPoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = MultiPoly.merge_vars(self, o)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return MultiPoly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.vars, Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "MultiPoly":
        if not c:
            return MultiPoly.zero(self.vars)
        return MultiPoly(self.vars, {e: cc * c for e, cc in self.terms.items()})

    def map_coeffs(self, fn) -> "MultiPoly":
        return MultiPoly(self.vars, {e: fn(c) for e, c in self.terms.items()})

    def monic(self) -> "MultiPoly":
        _, lc = self.leading_term()
        return self.scale(1 / lc)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = MultiPoly.merge_vars(self, o)
        if set(a.terms) != set(b.terms):
            return False
        return all(not (a.terms[e] - b.terms[e]) for e in a.terms)

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # -- calculus and structure ---------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        i = self._index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return MultiPoly(self.vars, terms)

    def initial_form(self, graded_vars) -> "MultiPoly":
        """Sum of terms of minimal total degree in graded_vars."""
        if self.is_zero():
            raise ValueError("initial form of the zero polynomial")
        idx = [self._index(v) for v in graded_vars]
        dmin = min(sum(e[i] for i in idx) for e in self.terms)
        terms = {
            e: c for e, c in self.terms.items() if sum(e[i] for i in idx) == dmin
        }
        return MultiPoly(self.vars, terms)

    def substitute(self, mapping) -> "MultiPoly":
        """Substitute polynomials (or constants) for variables.

        Unmapped variables stay themselves.  The result lives in the merged
        registry of all value polynomials plus the remaining variables.
        """
        values = {}
        for name, val in mapping.items():
            self._index(name)
            if not isinstance(val, MultiPoly):
                val = MultiPoly.constant(self.vars, val)
            values[name] = val
        result = None
        for e, c in self.terms.items():
            term = None
            for i, v in enumerate(self.vars):
                if e[i] == 0:
                    continue
                factor = values[v] if v in values else MultiPoly.var(self.vars, v)
                piece = factor ** e[i]
                term = piece if term is None else term * piece
            if term is None:
                term = MultiPoly.constant(self.vars, Fraction(1))
            term = term.scale(c)
            result = term if result is None else result + term
        if result is None:
            return MultiPoly.zero(self.vars)
        return result

    def evaluate(self, assignment):
        """Full evaluation at a point; every variable must be assigned."""
        total = None
        for e, c in self.terms.items():
            val = c
            for i, v in enumerate(self.vars):
                if e[i]:
                    val = val * assignment[v] ** e[i]
            total = val if total is None else total + val
        if total is None:
            return Fraction(0)
        return total

    def translate(self, point) -> "MultiPoly":
        """Shift so the given point moves to the origin (x -> x + p).

        Zero shifts are skipped; when nothing moves, self is returned.
        """
        mapping = {}
        for v, p in point.items():
            self._index(v)
            if p:
                mapping[v] = MultiPoly.var(self.vars, v) + MultiPoly.constant(self.vars, p)
        return self.substitute(mapping) if mapping else self

    # -- univariate views ---------------------------------------------

    def coeffs_in(self, name: str) -> list:
        """Dense ascending coefficient list viewing self in k[rest][name]."""
        i = self._index(name)
        d = self.degree_in(name)
        out = [MultiPoly.zero(self.vars) for _ in range(d + 1)]
        for e, c in self.terms.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            out[k] = out[k] + MultiPoly(self.vars, {tuple(ne): c})
        return out

    # -- printing -----------------------------------------------------

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# -- exact division and resultants ------------------------------------


def exact_div(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact quotient p/q; raises ValueError if q does not divide p."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p, q = MultiPoly.merge_vars(p, q)
    quot = MultiPoly.zero(p.vars)
    rem = p
    qe, qc = q.leading_term()
    qc_inv = 1 / qc
    while not rem.is_zero():
        re, rc = rem.leading_term()
        diff = tuple(a - b for a, b in zip(re, qe))
        if any(d < 0 for d in diff):
            raise ValueError("not an exact division")
        t = MultiPoly(p.vars, {diff: rc * qc_inv})
        quot = quot + t
        rem = rem - t * q
    return quot


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b.

    Dense ascending coefficient lists over MultiPoly; returns the trimmed
    remainder list ([zero] for the zero remainder).
    """
    da, db = len(a) - 1, len(b) - 1
    lb = b[db]
    e = da - db + 1
    r = list(a)
    while not (len(r) == 1 and r[0].is_zero()) and len(r) - 1 >= db:
        dr = len(r) - 1
        lead = r[dr]
        shift = dr - db
        r = [c * lb for c in r[:dr]]
        for j in range(db):
            r[shift + j] = r[shift + j] - lead * b[j]
        _dense_trim(r)
        e -= 1
    for _ in range(e):
        r = [c * lb for c in r]
    return r


def _dense_trim(c):
    while len(c) > 1 and c[-1].is_zero():
        c.pop()
    return c


def resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Resultant with respect to name, by the subresultant PRS algorithm.

    Both inputs must have positive degree in name.  The result lives in the
    remaining variables (same registry, name-degree 0).
    """
    p, q = MultiPoly.merge_vars(p, q)
    dp, dq = p.degree_in(name), q.degree_in(name)
    if dp <= 0 or dq <= 0:
        raise ValueError(f"both polynomials must have positive degree in {name!r}")
    one = MultiPoly.constant(p.vars, Fraction(1))

    A = _dense_trim(p.coeffs_in(name))
    B = _dense_trim(q.coeffs_in(name))
    s = 1
    if len(A) < len(B):
        A, B = B, A
        if ((len(A) - 1) * (len(B) - 1)) % 2 == 1:
            s = -s
    g = one
    h = one
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA % 2 == 1) and (dB % 2 == 1):
            s = -s
        R = _dense_trim(list(_prem(A, B)))
        if len(R) == 1 and R[0].is_zero():
            return MultiPoly.zero(p.vars)
        A = B
        denom = g * h**delta
        B = [exact_div(c, denom) for c in R]
        g = A[-1]
        if delta == 0:
            # h unchanged when delta = 0 (h = g^0 * h^1)
            pass
        elif delta == 1:
            h = g
        else:
            h = exact_div(g**delta, h ** (delta - 1))
        if len(B) - 1 <= 0:
            break
    dA = len(A) - 1
    lB = B[0]
    if dA <= 1:
        res = lB
    else:
        res = exact_div(lB**dA, h ** (dA - 1))
    if s < 0:
        res = -res
    return res


def sylvester_resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Resultant as the Sylvester determinant (cofactor expansion).

    Exponential in matrix size; used as an independent oracle for small cases.
    """
    p, q = MultiPoly.merge_vars(p, q)
    m, n = p.degree_in(name), q.degree_in(name)
    if m <= 0 or n <= 0:
        raise ValueError("positive degrees required")
    a = p.coeffs_in(name)
    b = q.coeffs_in(name)
    size = m + n
    zero = MultiPoly.zero(p.vars)
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    return _det(rows)


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        c = rows[0][j]
        if c.is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = c * _det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return MultiPoly.zero(rows[0][0].vars)
    return total


def discriminant(p: MultiPoly, name: str) -> MultiPoly:
    return resultant(p, p.derivative(name), name)


def content_free(p: MultiPoly) -> MultiPoly:
    """Divide a rational-coefficient polynomial by its rational content.

    Sign convention: the grevlex-leading coefficient becomes positive.
    """
    if p.is_zero():
        return p
    from math import gcd

    coeffs = []
    for c in p.terms.values():
        if isinstance(c, AlgebraicNumber):
            raise ValueError("content is defined here for rational coefficients only")
        coeffs.append(c)
    num = 0
    den = 1
    for c in coeffs:
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    cont = Fraction(num, den)
    out = p.scale(1 / cont)
    _, lc = out.leading_term()
    if lc < 0:
        out = -out
    return out


# -- text format -------------------------------------------------------

_TOKEN = re.compile(r"\s*([+-]|\*|\^|[A-Za-z_][A-Za-z_0-9]*|\[[^\]]*\]|\d+(?:/\d+)?)")


def format_coeff(c) -> str:
    if isinstance(c, AlgebraicNumber):
        if c.is_rational:
            q = c.rational_value()
            return f"{q.numerator}/{q.denominator}"
        return "[" + ",".join(c.to_json()) + "]"
    return f"{c.numerator}/{c.denominator}"


def format_poly(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[e]
        factors = [format_coeff(c)]
        for v, k in zip(p.vars, e):
            if k == 1:
                factors.append(v)
            elif k > 1:
                factors.append(f"{v}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def parse_poly(text: str, variables=None) -> MultiPoly:
    """Parse the term format produced by format_poly.

    Accepts integer, n/d and [..] algebraic coefficients, optional leading
    signs, and bare variables with ^ powers.  If variables is None the
    registry is the sorted set of names encountered.
    """
    text = text.strip()
    if text == "0":
        return MultiPoly.zero(variables or ())
    raw_terms = []
    pos = 0
    sign = 1
    current = []
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize polynomial at: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    # split on +/- at term boundaries
    terms = []
    cur = []
    cur_sign = 1
    expect_operand = True
    for t in tokens:
        if t in "+-" and not expect_operand:
            terms.append((cur_sign, cur))
            cur = []
            cur_sign = 1 if t == "+" else -1
            expect_operand = True
        elif t in "+-" and expect_operand:
            if t == "-":
                cur_sign = -cur_sign
        elif t in ("*", "^"):
            cur.append(t)
            expect_operand = True
        else:
            cur.append(t)
            expect_operand = False
    if cur:
        terms.append((cur_sign, cur))

    names = set()
    parsed = []
    for sgn, toks in terms:
        coeff = Fraction(1)
        monomial = {}
        i = 0
        while i < len(toks):
            t = toks[i]
            if t in ("*",):
                i += 1
                continue
            if t.startswith("["):
                coeff = coeff * AlgebraicNumber.from_json(
                    [s.strip() for s in t[1:-1].split(",")]
                )
                i += 1
            elif re.fullmatch(r"\d+(?:/\d+)?", t):
                coeff = coeff * Fraction(t)
                i += 1
            else:
                name = t
                power = 1
                if i + 2 < len(toks) + 1 and i + 1 < len(toks) and toks[i + 1] == "^":
                    power = int(toks[i + 2])
                    i += 3
                else:
                    i += 1
                monomial[name] = monomial.get(name, 0) + power
                names.add(name)
        if sgn < 0:
            coeff = -coeff
        parsed.append((coeff, monomial))
    if variables is None:
        variables = tuple(sorted(names))
    else:
        variables = tuple(variables)
        for n in names:
            if n not in variables:
                raise ValueError(f"variable {n!r} not in registry {variables}")
    terms_map = {}
    for coeff, mono in parsed:
        e = tuple(mono.get(v, 0) for v in variables)
        terms_map[e] = terms_map[e] + coeff if e in terms_map else coeff
    return MultiPoly(variables, terms_map)
