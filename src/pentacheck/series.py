"""Truncated power series in one parameter and parameterized curves.

A TruncatedSeries stores the exact coefficients of s^0..s^T, keeping only
the nonzero ones as {power: coeff}, so the cost of arithmetic follows the
number of terms (for a polynomial curve, its degree) and not T.  Arithmetic
never pretends to know coefficients beyond T; order-of-vanishing queries
fail loudly when the truncation cannot decide them.
"""

from __future__ import annotations

from fractions import Fraction

from .field import AlgebraicNumber
from .multipoly import MultiPoly

DEFAULT_TRUNCATION = 16
_ZERO = Fraction(0)


class ZeroToTruncation(Exception):
    """All coefficients vanish up to the truncation order."""


class TruncationInsufficient(Exception):
    """The requested quantity is not determined at this truncation order."""


class TruncatedSeries:
    """Exact coefficients of s^0..s^T; `terms` holds only the nonzero ones."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms: dict, truncation):
        """terms: {power: coeff}; zeros and powers above T are dropped."""
        self.terms = {k: c for k, c in terms.items() if c and k <= truncation}
        self.truncation = truncation

    @classmethod
    def zero(cls, truncation):
        return cls({}, truncation)

    @classmethod
    def constant(cls, c, truncation):
        if isinstance(c, int):
            c = Fraction(c)  # keep 1 / c exact for coefficients
        return cls({0: c}, truncation)

    @classmethod
    def from_terms(cls, terms, truncation):
        """terms: iterable of (power, coeff)."""
        out = {}
        for k, v in terms:
            if 0 <= k <= truncation:
                out[k] = out.get(k, _ZERO) + v
        return cls(out, truncation)

    @property
    def coeffs(self) -> list:
        """Dense read-only view: the coefficients of s^0..s^T."""
        get = self.terms.get
        return [get(k, _ZERO) for k in range(self.truncation + 1)]

    def is_zero_to_truncation(self) -> bool:
        return not self.terms

    def order(self):
        """(order, leading coefficient); raises ZeroToTruncation if undecidable."""
        if not self.terms:
            raise ZeroToTruncation(
                f"series is zero up to truncation order {self.truncation}"
            )
        k = min(self.terms)
        return k, self.terms[k]

    def coefficient(self, k):
        if k > self.truncation:
            raise TruncationInsufficient(
                f"coefficient of s^{k} beyond truncation {self.truncation}"
            )
        return self.terms.get(k, _ZERO)

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            if other.truncation != self.truncation:
                raise ValueError("truncation orders differ")
            return other
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return TruncatedSeries.constant(other, self.truncation)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            out[k] = out[k] + c if k in out else c
        return TruncatedSeries(out, self.truncation)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(
            {k: -c for k, c in self.terms.items()}, self.truncation
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        T = self.truncation
        right = sorted(o.terms.items())
        out = {}
        for i, a in self.terms.items():
            top = T - i
            for j, b in right:
                if j > top:
                    break
                k = i + j
                out[k] = out[k] + a * b if k in out else a * b
        return TruncatedSeries(out, T)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative series power; use divide")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        if result is None:
            return TruncatedSeries.constant(Fraction(1), self.truncation)
        return result

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by s^k (k may be negative if divisible)."""
        if k < 0 and any(j < -k for j in self.terms):
            raise ValueError("negative shift of a series with low-order terms")
        return TruncatedSeries(
            {j + k: c for j, c in self.terms.items()}, self.truncation
        )

    def invert_unit(self) -> "TruncatedSeries":
        """Inverse of a series with invertible constant term."""
        c0 = self.terms.get(0)
        if not c0:
            raise ValueError("series is not a unit (zero constant term)")
        inv0 = 1 / c0
        rest = sorted((j, c) for j, c in self.terms.items() if j)
        out = {0: inv0}
        for k in range(1, self.truncation + 1):
            acc = _ZERO
            for j, c in rest:
                if j > k:
                    break
                prev = out.get(k - j)
                if prev is not None:
                    acc = acc + c * prev
            if acc:
                out[k] = -inv0 * acc
        return TruncatedSeries(out, self.truncation)

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Division when the divisor's order can be cancelled exactly.

        The quotient loses precision at the top: coefficients beyond
        T - ord(other) are not trusted and are zeroed.
        """
        k, _ = other.order()
        num = self.shift(-k) if k else self
        unit = other.shift(-k) if k else other
        q = num * unit.invert_unit()
        if k:
            # top k coefficients of the quotient are not determined
            top = self.truncation - k
            q = TruncatedSeries(
                {j: c for j, c in q.terms.items() if j <= top}, self.truncation
            )
        return q

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        return all(
            not (a.get(k, _ZERO) - b.get(k, _ZERO)) for k in a.keys() | b.keys()
        )

    def __repr__(self):
        parts = [f"{c}*s^{k}" for k, c in sorted(self.terms.items())]
        body = " + ".join(parts) if parts else "0"
        return f"<series {body} + O(s^{self.truncation + 1})>"


class ParamCurve:
    """One truncated series per ambient variable, shared parameter and order.

    `polynomial` is True when every component was given as terms of power
    at most the truncation: the components are then exact polynomials, not
    truncations of longer series.
    """

    def __init__(self, series_by_var: dict, truncation: int = DEFAULT_TRUNCATION):
        self.truncation = truncation
        self.series = {}
        self.polynomial = True
        for name, s in series_by_var.items():
            if isinstance(s, TruncatedSeries):
                if s.truncation != truncation:
                    raise ValueError("curve components must share the truncation")
                self.series[name] = s
                self.polynomial = False
            else:
                # iterable of (power, coeff)
                terms = list(s)
                self.polynomial = self.polynomial and all(
                    0 <= k <= truncation for k, c in terms if c
                )
                self.series[name] = TruncatedSeries.from_terms(terms, truncation)

    def degree(self) -> int:
        """Largest power with a nonzero coefficient in any component."""
        return max((k for s in self.series.values() for k in s.terms), default=0)

    def component(self, name: str) -> TruncatedSeries:
        return self.series[name]

    def reparametrize(self, c) -> "ParamCurve":
        """s -> c*s with nonzero rational c."""
        if not c:
            raise ValueError("reparameterization constant must be nonzero")
        out = {}
        for name, s in self.series.items():
            out[name] = TruncatedSeries(
                {k: coeff * c**k for k, coeff in s.terms.items()}, self.truncation
            )
        curve = ParamCurve(out, self.truncation)
        curve.polynomial = self.polynomial
        return curve

    def substitute_into(self, p: MultiPoly) -> TruncatedSeries:
        return series_substitute(p, self)


def series_substitute(p: MultiPoly, curve: ParamCurve) -> TruncatedSeries:
    """Compose the polynomial with the curve, exactly up to the truncation."""
    T = curve.truncation
    for v in p.vars:
        if any(e[p.vars.index(v)] for e in p.terms) and v not in curve.series:
            raise ValueError(f"curve provides no series for variable {v!r}")
    power_cache = {}

    def powers(name, k):
        key = (name, k)
        if key not in power_cache:
            power_cache[key] = curve.series[name] ** k
        return power_cache[key]

    total = TruncatedSeries.zero(T)
    for e, c in p.terms.items():
        term = TruncatedSeries.constant(c, T)
        for i, v in enumerate(p.vars):
            if e[i]:
                term = term * powers(v, e[i])
        total = total + term
    return total

