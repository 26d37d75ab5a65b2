"""Division with quotient tracking, S-polynomials, Buchberger's algorithm,
reduced Groebner bases and initial ideals.

Everything here is deliberately plain: the normal selection strategy plus
the coprimality and chain criteria, nothing else.  This module doubles as
the independent oracle for the rest of the package, so auditability beats
cleverness.  Two heaps only spare rescans: Buchberger computes each pair's
key once, when the pair is created, and pops pairs from a heap in the order
the normal strategy gives; division draws the next term to treat from a
heap of the monomials in the working polynomial, as in Monagan and Pearce,
"Sparse polynomial division using a heap" (JSC 2011).

Division runs on an image of its input in ints.  A monomial is one int of
poly._DrlPacking, whose int order is DRL order, so the heap orders ints, a
monomial product is one int addition and a divisibility test a subtraction
and two comparisons of bit fields.  The fields are as wide as the largest
total degree among the dividend and the divisors needs, and DRL's
degree-compatibility is what makes that enough: every term of the working
polynomial is DRL-below the dividend's leading term, and every quotient
term times a divisor term is DRL-below the term it cancels, so no monomial
met in a division has a larger degree and no field carries.  The tests keep
a plain division on exponent tuples that rescans for the largest term as
the reference this one must match, quotients and remainder.

Over GF(p) the scalars are the Poly's own, ints in [0, p), so they cross
the boundary unchanged.  Over QQ a coefficient enters as an int when its
denominator is 1 and as a Fraction otherwise, and a quotient coefficient is
brought back to an int whenever its denominator is 1, so a division with
integer coefficients and monic divisors stays in int arithmetic.  A
non-unit leading coefficient divides through Fraction, never through / on
two ints.  Only the results become Poly values again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero
from .poly import (
    Poly,
    _DrlPacking,
    drl_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


@dataclass(frozen=True)
class DivisionResult:
    """f = sum(quotients[i] * divisors[i]) + remainder, exactly."""

    quotients: tuple
    remainder: Poly


def divide(f: Poly, divisors) -> DivisionResult:
    """Multivariate division; ties always go to the leftmost divisor.

    f and the divisors are packed once, as wide as the largest total degree
    among them needs (see the module docstring), and the heap loop runs on
    the images."""
    divisors = list(divisors)
    top = max([f.degree(), 0] + [g.degree() for g in divisors])
    packed = _PackedDivisors(f, top, divisors)
    return packed.divide(packed.image(f))


class _PackedDivisors:
    """Divisors packed once, for any number of divisions of dividends packed
    the same way: monomials as ints of a _DrlPacking for degrees up to
    `top`, scalars as in the module docstring.  The divisors must be nonzero
    and live in the ring of `f`.  `images` holds each divisor as
    {packed monomial: scalar}."""

    def __init__(self, f: Poly, top: int, divisors):
        for g in divisors:
            if g.is_zero():
                raise DivisionByZero("division by a zero polynomial")
            f._check_compatible(g)
        field, nvars = f.field, f.nvars
        self.field = field
        self.p = field.characteristic
        self.packing = _DrlPacking(nvars, top)
        self.images = [self.image(g) for g in divisors]
        # Per divisor: its leading monomial (the largest int), the scalar
        # that turns a coefficient into a quotient coefficient (the inverse
        # of the leading coefficient mod p, over QQ the leading coefficient
        # itself) and its other terms.
        self.leads = []
        for g in self.images:
            lead = max(g)
            lc = g[lead]
            scale = field.inv(lc) if self.p else lc
            self.leads.append((lead, scale, [(m, c) for m, c in g.items() if m != lead]))
        zero = Poly.zero(field, nvars)
        self.zero = DivisionResult(tuple(zero for _ in divisors), zero)

    def image(self, f: Poly) -> dict:
        pack = self.packing.pack
        if self.p:
            return {pack(m): c for m, c in f.terms.items()}
        return {pack(m): c.numerator if c.denominator == 1 else c for m, c in f.terms.items()}

    def _poly(self, image: dict) -> Poly:
        unpack, coerce = self.packing.unpack, self.field.coerce
        if self.p:
            terms = {unpack(m): c for m, c in image.items()}
        else:
            terms = {unpack(m): coerce(c) for m, c in image.items()}
        return Poly(self.field, self.packing.nvars, terms)

    def divide(self, work: dict) -> DivisionResult:
        """Divide the image `work`, which is consumed.

        The heap holds negated monomials, so it pops the DRL-largest first.
        A monomial is pushed when it enters `work`; an entry whose monomial
        has since cancelled out of `work` is stale and skipped.  A treated
        monomial never comes back, since every term a step adds is DRL-below
        it; so each quotient monomial is written once.
        """
        if not work:
            return self.zero
        p = self.p
        heap = [-m for m in work]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        divides = self.packing.divides
        quots = [dict() for _ in self.leads]
        rem: dict = {}
        while heap:
            mono = -heappop(heap)
            coeff = work.pop(mono, None)
            if coeff is None:
                continue
            for (lead, scale, tail), quot in zip(self.leads, quots):
                if divides(lead, mono):
                    qm = mono - lead
                    if p:
                        qc = coeff * scale % p
                    else:
                        qc = coeff if scale == 1 else Fraction(coeff, scale)
                        if type(qc) is Fraction and qc.denominator == 1:
                            qc = qc.numerator
                    quot[qm] = qc
                    # The leading term cancels `mono`, already popped from work.
                    for m2, c2 in tail:
                        mm = qm + m2
                        prev = work.get(mm)
                        nc = -qc * c2 if prev is None else prev - qc * c2
                        if p:
                            nc %= p
                        if nc:
                            if prev is None:
                                heappush(heap, -mm)
                            work[mm] = nc
                        else:
                            del work[mm]
                    break
            else:
                rem[mono] = coeff
        return DivisionResult(tuple(self._poly(q) for q in quots), self._poly(rem))


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """The leading-term-cancelling combination of f and g."""
    f._check_compatible(g)
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    inv = f.field.inv
    return f.mul_term(mono_div(lcm, lf), inv(f.leading_coeff())) - g.mul_term(
        mono_div(lcm, lg), inv(g.leading_coeff())
    )


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced DRL Groebner basis: monic, interreduced, sorted by
    descending leading monomial."""

    elements: tuple
    field: object


def buchberger(gens) -> GroebnerBasis:
    """Buchberger's algorithm with the coprimality and chain criteria,
    followed by interreduction to the unique reduced basis."""
    G = [g.monic() for g in gens if not g.is_zero()]
    if not G:
        raise ValueError("need at least one nonzero generator")
    field = G[0].field
    for g in G:
        G[0]._check_compatible(g)

    # Normal strategy: the pair with the DRL-smallest lcm first, ties by
    # (i, j).  Leading monomials never change, so each key is final.
    pending: list = []

    def add_pairs(new):
        for k in range(new):
            lcm = mono_lcm(G[k].leading_monomial(), G[new].leading_monomial())
            heapq.heappush(pending, (drl_key(lcm), k, new))

    for new in range(1, len(G)):
        add_pairs(new)
    treated: set = set()
    while pending:
        _, i, j = heapq.heappop(pending)
        treated.add((i, j))
        li, lj = G[i].leading_monomial(), G[j].leading_monomial()
        lcm = mono_lcm(li, lj)
        if lcm == mono_mul(li, lj):
            continue  # coprime leading terms
        chained = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(G[k].leading_monomial(), lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in treated and pjk in treated:
                    chained = True
                    break
        if chained:
            continue
        r = divide(s_polynomial(G[i], G[j]), G).remainder
        if not r.is_zero():
            G.append(r.monic())
            add_pairs(len(G) - 1)

    # Minimalize: keep only elements whose leading monomial no other kept
    # leading monomial divides.
    G.sort(key=lambda g: drl_key(g.leading_monomial()))
    minimal = []
    for g in G:
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)

    # Tail-reduce to a fixpoint; leading monomials never change here.
    changed = True
    while changed:
        changed = False
        for idx, g in enumerate(minimal):
            others = minimal[:idx] + minimal[idx + 1 :]
            r = divide(g, others).remainder if others else g
            if r != g:
                minimal[idx] = r.monic()
                changed = True

    minimal.sort(key=lambda g: drl_key(g.leading_monomial()), reverse=True)
    return GroebnerBasis(tuple(minimal), field)


def minimal_monomial_generators(monos) -> tuple:
    """Drop monomials divisible by another; sort DRL-descending."""
    monos = sorted(set(monos), key=drl_key)
    kept = []
    for m in monos:
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    kept.sort(key=drl_key, reverse=True)
    return tuple(kept)


def initial_ideal(gb) -> tuple:
    """Minimal monomial generators of the ideal of leading terms."""
    elements = gb.elements if isinstance(gb, GroebnerBasis) else list(gb)
    return minimal_monomial_generators(g.leading_monomial() for g in elements)
