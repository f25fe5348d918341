"""Buchberger's algorithm with the normal selection strategy and both
classical criteria, plus radical membership via the extra-variable trick.

Scale target: ideals in at most 6 variables with generators of degree <= 12,
over Q or the quartic field.  Monomial order is graded reverse lexicographic
with respect to the ideal's variable registry.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .multipoly import MultiPoly, grevlex_key


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _disjoint(e1, e2):
    return all(a == 0 or b == 0 for a, b in zip(e1, e2))


def normal_form(p: MultiPoly, basis, lead=None) -> MultiPoly:
    """Remainder of p under multivariate division by the basis.

    `lead`, when given, lists the basis members' leading terms
    `(exponent, coefficient)` in basis order, as `leading_term()` returns
    them; callers that already hold them skip recomputing one per member.
    """
    if not basis:
        return p
    variables = basis[0].vars
    p = p.in_vars(variables)
    if lead is None:
        lead = [b.leading_term() for b in basis]
    rem = MultiPoly.zero(variables)
    while not p.is_zero():
        e, c = p.leading_term()
        for (be, bc), b in zip(lead, basis):
            if _divides(be, e):
                q = tuple(a - b2 for a, b2 in zip(e, be))
                factor = c / bc
                p = p - MultiPoly(variables, {q: factor}) * b
                break
        else:
            t = MultiPoly(variables, {e: c})
            rem = rem + t
            p = p - t
    return rem


def _s_poly(f: MultiPoly, g: MultiPoly, f_lead, g_lead) -> MultiPoly:
    fe, fc = f_lead
    ge, gc = g_lead
    l = _lcm(fe, ge)
    finv = 1 / fc
    ginv = 1 / gc
    tf = MultiPoly(f.vars, {tuple(a - b for a, b in zip(l, fe)): finv})
    tg = MultiPoly(g.vars, {tuple(a - b for a, b in zip(l, ge)): ginv})
    return tf * f - tg * g


def buchberger(generators) -> list:
    """Reduced Groebner basis (grevlex), deterministic for a fixed input set.

    Pairs come from a heap keyed by (grevlex lcm of the leading monomials,
    i, j), so they are reduced in the normal-strategy order; each member's
    leading term is computed once and handed to every normal form.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    variables = gens[0].vars
    for g in gens[1:]:
        a, b = MultiPoly.merge_vars(gens[0], g)
        variables = a.vars
    gens = [g.in_vars(variables) for g in gens]
    # deterministic starting order regardless of generator permutation
    gens = sorted(
        set(g.monic() for g in gens),
        key=lambda g: sorted(map(grevlex_key, g.terms), reverse=True),
    )
    basis = list(gens)
    lead = [g.leading_term() for g in basis]  # parallel to basis
    pairs = set()  # pairs not yet popped, for the chain criterion
    heap = []

    def add_pairs(n):
        for k in range(n):
            pairs.add((n, k))
            l = _lcm(lead[n][0], lead[k][0])
            heapq.heappush(heap, (grevlex_key(l), n, k))

    for n in range(len(basis)):
        add_pairs(n)
    while heap:
        _, i, j = heapq.heappop(heap)
        pairs.discard((i, j))
        ei, ej = lead[i][0], lead[j][0]
        if _disjoint(ei, ej):
            continue  # first Buchberger criterion
        l = _lcm(ei, ej)
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not _divides(lead[k][0], l):
                continue
            p1 = (max(i, k), min(i, k))
            p2 = (max(j, k), min(j, k))
            if p1 not in pairs and p2 not in pairs:
                skip = True  # chain criterion
                break
        if skip:
            continue
        s = _s_poly(basis[i], basis[j], lead[i], lead[j])
        s = normal_form(s, basis, lead)
        if s.is_zero():
            continue
        s = s.monic()
        basis.append(s)
        lead.append(s.leading_term())
        add_pairs(len(basis) - 1)
    return _interreduce(basis, lead)


def _interreduce(basis, lead) -> list:
    # drop members whose leading monomial is divisible by another's
    keep = list(range(len(basis)))
    changed = True
    while changed:
        changed = False
        for pos, i in enumerate(keep):
            if any(_divides(lead[k][0], lead[i][0]) for k in keep if k != i):
                keep.pop(pos)
                changed = True
                break
    # fully reduce each member against the rest
    out = []
    for i in keep:
        others = [k for k in keep if k != i]
        r = basis[i]
        if others:
            r = normal_form(r, [basis[k] for k in others], [lead[k] for k in others])
        out.append(r.monic())
    out.sort(key=lambda g: grevlex_key(g.leading_term()[0]))
    return out


class Ideal:
    """Polynomial ideal with a write-once cached reduced Groebner basis."""

    def __init__(self, generators):
        self.generators = [g for g in generators]
        self._basis = None

    @property
    def vars(self):
        return self.groebner_basis()[0].vars if self.groebner_basis() else ()

    def groebner_basis(self) -> list:
        if self._basis is None:
            self._basis = buchberger(self.generators)
        return self._basis

    def reduce(self, p: MultiPoly) -> MultiPoly:
        return normal_form(p, self.groebner_basis())

    def contains(self, p: MultiPoly) -> bool:
        return self.reduce(p).is_zero()

    def is_unit_ideal(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()

    def __repr__(self):
        return f"Ideal({[str(g) for g in self.generators]})"


def radical_membership(g: MultiPoly, ideal: Ideal):
    """True iff g vanishes on V(ideal): 1 in <ideal, 1 - w*g>.

    Returns (verdict, certificate_basis); the certificate is the reduced
    Groebner basis of the saturating ideal, containing 1 exactly when the
    verdict is true.
    """
    gens = list(ideal.generators)
    if not gens:
        return g.is_zero(), []
    base = gens[0]
    for h in gens[1:]:
        base, _ = MultiPoly.merge_vars(base, h)
    base, g2 = MultiPoly.merge_vars(base, g)
    variables = base.vars
    if "w_" in variables:
        raise ValueError("auxiliary variable 'w_' collides with registry")
    ext = variables + ("w_",)
    w = MultiPoly.var(ext, "w_")
    lifted = [h.in_vars(variables).in_vars(ext) for h in gens]
    lifted.append(MultiPoly.constant(ext, Fraction(1)) - w * g2.in_vars(ext))
    gb = buchberger(lifted)
    is_unit = len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()
    return is_unit, gb


def same_radical(i1: Ideal, i2: Ideal) -> bool:
    """Do V(i1) and V(i2) coincide?  Checked by mutual radical membership."""
    for g in i2.generators:
        ok, _ = radical_membership(g, i1)
        if not ok:
            return False
    for g in i1.generators:
        ok, _ = radical_membership(g, i2)
        if not ok:
            return False
    return True
