"""Truncated power series in one parameter and parameterized curves.

A TruncatedSeries stores exact coefficients of s^0..s^T.  Arithmetic never
pretends to know coefficients beyond T; order-of-vanishing queries fail
loudly when the truncation cannot decide them.
"""

from __future__ import annotations

from fractions import Fraction

from .field import AlgebraicNumber
from .multipoly import MultiPoly

DEFAULT_TRUNCATION = 16


class ZeroToTruncation(Exception):
    """All coefficients vanish up to the truncation order."""


class TruncationInsufficient(Exception):
    """The requested quantity is not determined at this truncation order."""


class TruncatedSeries:
    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation):
        coeffs = list(coeffs)
        if len(coeffs) > truncation + 1:
            coeffs = coeffs[: truncation + 1]
        while len(coeffs) < truncation + 1:
            coeffs.append(Fraction(0))
        self.coeffs = coeffs
        self.truncation = truncation

    @classmethod
    def zero(cls, truncation):
        return cls([], truncation)

    @classmethod
    def constant(cls, c, truncation):
        if isinstance(c, int):
            c = Fraction(c)  # keep 1 / c exact for coefficients
        return cls([c], truncation)

    @classmethod
    def from_terms(cls, terms, truncation):
        """terms: iterable of (power, coeff)."""
        c = [Fraction(0)] * (truncation + 1)
        for k, v in terms:
            if 0 <= k <= truncation:
                c[k] = c[k] + v
        return cls(c, truncation)

    def is_zero_to_truncation(self) -> bool:
        return not any(self.coeffs)

    def order(self):
        """(order, leading coefficient); raises ZeroToTruncation if undecidable."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k, c
        raise ZeroToTruncation(
            f"series is zero up to truncation order {self.truncation}"
        )

    def coefficient(self, k):
        if k > self.truncation:
            raise TruncationInsufficient(
                f"coefficient of s^{k} beyond truncation {self.truncation}"
            )
        return self.coeffs[k]

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
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, o.coeffs)], self.truncation
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-a for a in self.coeffs], self.truncation)

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
        out = [Fraction(0)] * (T + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(0, T + 1 - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, T)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative series power; use divide")
        result = TruncatedSeries.constant(Fraction(1), self.truncation)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by s^k (k may be negative if divisible)."""
        T = self.truncation
        if k >= 0:
            return TruncatedSeries([Fraction(0)] * k + self.coeffs, T)
        for c in self.coeffs[:-k]:
            if c:
                raise ValueError("negative shift of a series with low-order terms")
        return TruncatedSeries(self.coeffs[-k:] + [Fraction(0)] * (-k), T)

    def invert_unit(self) -> "TruncatedSeries":
        """Inverse of a series with invertible constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise ValueError("series is not a unit (zero constant term)")
        inv0 = 1 / c0
        T = self.truncation
        out = [Fraction(0)] * (T + 1)
        out[0] = inv0
        for k in range(1, T + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return TruncatedSeries(out, T)

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
            coeffs = q.coeffs[: self.truncation + 1 - k] + [Fraction(0)] * k
            q = TruncatedSeries(coeffs, self.truncation)
        return q

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return all(not (a - b) for a, b in zip(self.coeffs, o.coeffs))

    def __hash__(self):
        return hash(tuple(str(c) for c in self.coeffs))

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*s^{k}")
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
        return max(
            (k for s in self.series.values() for k, c in enumerate(s.coeffs) if c),
            default=0,
        )

    def component(self, name: str) -> TruncatedSeries:
        return self.series[name]

    def reparametrize(self, c) -> "ParamCurve":
        """s -> c*s with nonzero rational c."""
        if not c:
            raise ValueError("reparameterization constant must be nonzero")
        out = {}
        for name, s in self.series.items():
            out[name] = TruncatedSeries(
                [coeff * c**k for k, coeff in enumerate(s.coeffs)], self.truncation
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

