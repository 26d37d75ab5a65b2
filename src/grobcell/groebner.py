"""Division with quotient tracking, S-polynomials, Buchberger's algorithm,
reduced Groebner bases and initial ideals.

Everything here is deliberately plain: the normal selection strategy plus
the coprimality and chain criteria, nothing else.  This module doubles as
the independent oracle for the rest of the package, so auditability beats
cleverness.  Two heaps only spare rescans: Buchberger computes each pair's
key once, when the pair is created, and pops pairs from a heap in the order
the normal strategy gives; division draws the next term to treat from a
heap of the monomials in the working polynomial.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DivisionByZero
from .poly import (
    Poly,
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
    """Multivariate division; ties always go to the leftmost divisor."""
    divisors = list(divisors)
    field = f.field
    for g in divisors:
        if g.is_zero():
            raise DivisionByZero("division by a zero polynomial")
        f._check_compatible(g)
    lts = [(g.leading_monomial(), g.leading_coeff()) for g in divisors]

    # Min-heap on (-deg, reversed tail exponents), i.e. DRL-descending.  A
    # monomial is pushed when it enters `work`; an entry whose monomial has
    # since cancelled out of `work` is stale and skipped.
    work = dict(f.terms)
    heap = [((-sum(m),) + m[:0:-1], m) for m in work]
    heapq.heapify(heap)
    quots = [dict() for _ in divisors]
    rem: dict = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.get(mono)
        if coeff is None:
            continue
        for k, (gm, gc) in enumerate(lts):
            if mono_divides(gm, mono):
                qm = mono_div(mono, gm)
                qc = coeff / gc
                q = quots[k]
                prev = q.get(qm)
                q[qm] = qc if prev is None else prev + qc
                for m2, c2 in divisors[k].terms.items():
                    mm = mono_mul(qm, m2)
                    prev = work.get(mm)
                    nc = -(qc * c2) if prev is None else prev - qc * c2
                    if nc:
                        if prev is None:
                            heapq.heappush(heap, ((-sum(mm),) + mm[:0:-1], mm))
                        work[mm] = nc
                    else:
                        work.pop(mm, None)
                break
        else:
            rem[mono] = coeff
            del work[mono]

    nvars = f.nvars
    return DivisionResult(
        tuple(Poly(field, nvars, q) for q in quots),
        Poly(field, nvars, rem),
    )


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """The leading-term-cancelling combination of f and g."""
    f._check_compatible(g)
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    one = f.field.one
    return f.mul_term(mono_div(lcm, lf), one / f.leading_coeff()) - g.mul_term(
        mono_div(lcm, lg), one / g.leading_coeff()
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
