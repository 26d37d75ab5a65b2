"""Division with quotient tracking, S-polynomials, Buchberger's algorithm,
reduced Groebner bases and initial ideals.

Buchberger selects pairs by the sugar strategy of Giovini, Mora, Niesi,
Robbiano and Traverso, "One sugar cube, please, or selection strategies in
the Buchberger algorithm" (ISSAC 1991), and skips them by the coprimality
and chain criteria, nothing else.  A generator's sugar is its degree, a
pair's sugar is the larger of s_i + deg lcm - deg lm_i and s_j + deg lcm -
deg lm_j, and a remainder keeps its pair's sugar, which tracks the degree
the pair would have in the computation on the homogenized generators.  Pairs
go smallest sugar first, then DRL-smallest lcm, then by index.  On
homogeneous input the sugar of a pair is its lcm degree, so the order is
the normal strategy's; on affine input the normal strategy follows lcm
degree alone and can build remainders of a degree, and over QQ of a
coefficient size, that the reduced basis never needs.  The reduced basis is
unique, so the strategy changes the work, not the result.

Two heaps only spare rescans: Buchberger computes each pair's key once,
when the pair is created, and pops pairs from a heap; division draws the
next term to treat from a heap of the monomials in the working polynomial,
as in Monagan and Pearce, "Sparse polynomial division using a heap" (JSC
2011).

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

Buchberger holds G as one growing set of such images for the whole run.
The same argument bounds the degrees per S-pair: every monomial met while
building and reducing the S-polynomial of a pair has degree at most that of
the pair's lcm.  So G is packed once, as wide as its generators need, and
before each S-pair is built its lcm degree is checked against the packing's
range; an lcm past it re-packs G into a packing whose range at least
doubles, which happens O(log deg) times.  Each S-polynomial is built on the
images, one int addition per term, and reduced by the same heap loop, which
then writes no quotient; minimalization and tail reduction run on the
images too, and only the returned basis becomes Poly values.  The tests keep
a Poly-level loop with the normal strategy as the oracle this one must match
(tests/oracles.py, plain_buchberger): a different pair order that must reach
the same basis.

No input joins G as it is.  Buchberger takes the inputs by degree and adds
each one's remainder by G, with the input's degree as its sugar, and skips
an input whose remainder is zero.  This cannot change the ideal: each
remainder is a nonzero multiple of its input minus an element of the ideal
of the inputs before it, so G generates, at every step, the ideal of the
inputs taken so far.  It cannot change the output either, since the reduced
basis is unique; it only spares the S-pairs that would redo the linear
algebra among the inputs.  No remainder's degree passes its input's, so the
packing for the largest input degree holds these divisions.  The chain
criterion runs on the images too: before it, an lcm past the packing's range
widens G, and then the packed lcm is tested against G's packed leading
monomials.  Pair keys stay drl_key tuples of exponent-tuple leading
monomials, so re-packing never re-keys the pair heap.

The scalars are the Poly's own, so they cross the boundary unchanged:
over GF(p) ints in [0, p), and Buchberger keeps G monic; over QQ ints when
integral and Fractions with denominator > 1 otherwise.  A division that
writes quotients is exact and keeps that format, bringing every quotient
and working coefficient back to an int whenever its denominator is 1; a
non-unit leading coefficient divides through Fraction, never through / on
two ints.  Buchberger needs no quotients and no particular scalar multiple
of a remainder, so over QQ it stays fraction-free: G holds primitive
images (denominators cleared, content divided out, leading coefficient
positive), the S-polynomial of g_i and g_j with leading coefficients a_i and
a_j and g = gcd(a_i, a_j) is (a_j/g) x^si g_i - (a_i/g) x^sj g_j, and each
reduction step is a pseudo-step in ints (see _PackedDivisors.divide), with
the content of a remainder removed once, when it joins G.  Every pseudo-step
scales the working polynomial by a nonzero scalar and keeps its support, so
it treats the same term with the same divisor as the exact step would: each
remainder is a nonzero multiple of the exact one, and the leading
monomials, sugars, criteria and reduced basis are the same.  Minimalization
and tail reduction run on the primitive images, and only the returned
elements are made monic and become Poly values again.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero
from .poly import (
    Poly,
    _DrlPacking,
    _merge_terms,
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
    quots = [{} for _ in divisors]
    rem = packed.divide(packed.image(f), quots=quots)
    return DivisionResult(tuple(map(packed.poly, quots)), packed.poly(rem))


class _PackedDivisors:
    """Divisors packed once, for any number of divisions of dividends packed
    the same way: monomials as ints of a _DrlPacking for degrees up to
    `top`, scalars as in the module docstring.  The divisors must be nonzero
    and live in the ring of `f`; `append` adds one more, already packed, and
    `repack` widens the packing.  `images` holds each divisor as
    {packed monomial: scalar}."""

    def __init__(self, f: Poly, top: int, divisors=()):
        for g in divisors:
            if g.is_zero():
                raise DivisionByZero("division by a zero polynomial")
            f._check_compatible(g)
        self.field = f.field
        self.p = f.field.characteristic
        self.packing = _DrlPacking(f.nvars, top)
        self.images, self.leads = [], []
        for g in divisors:
            self.append(self.image(g))

    def lead(self, image: dict) -> tuple:
        """What division needs of a divisor: its leading monomial (the
        largest int), the scalar that turns a coefficient into a quotient
        coefficient (the inverse of the leading coefficient mod p, over QQ
        the leading coefficient itself) and its other terms."""
        lead = max(image)
        lc = image[lead]
        scale = self.field.inv(lc) if self.p else lc
        return lead, scale, [(m, c) for m, c in image.items() if m != lead]

    def append(self, image: dict):
        """Add the image of a nonzero polynomial as the last divisor."""
        self.images.append(image)
        self.leads.append(self.lead(image))

    def repack(self, top: int):
        """Re-pack every divisor for degrees up to `top`; images of the old
        packing mean nothing afterwards."""
        old, new = self.packing, _DrlPacking(self.packing.nvars, top)
        images = self.images
        self.packing, self.images, self.leads = new, [], []
        for g in images:
            self.append({new.pack(old.unpack(m)): c for m, c in g.items()})

    def image(self, f: Poly) -> dict:
        pack = self.packing.pack
        return {pack(m): c for m, c in f.terms.items()}

    def poly(self, image: dict) -> Poly:
        """The Poly of an image; its leading monomial is the largest int."""
        unpack = self.packing.unpack
        terms = {unpack(m): c for m, c in image.items()}
        lm = unpack(max(image)) if image else None
        return Poly(self.field, self.packing.nvars, terms, lm)

    def primitive(self, image: dict) -> dict:
        """The scalar multiple of the nonzero image that Buchberger keeps:
        over QQ the primitive one, with int coefficients, content 1 and a
        positive leading coefficient; over GF(p), where every nonzero
        scalar is a unit, the monic one."""
        if self.p:
            p, scale = self.p, self.field.inv(image[max(image)])
            return {m: c * scale % p for m, c in image.items()}
        den = math.lcm(*(c.denominator for c in image.values()))
        image = {m: c.numerator * (den // c.denominator) for m, c in image.items()}
        content = math.gcd(*image.values())
        if image[max(image)] < 0:
            content = -content
        if content == 1:
            return image
        return {m: c // content for m, c in image.items()}

    def difference(self, i: int, si: int, j: int, sj: int, ci: int, cj: int) -> dict:
        """The image of ci times divisor i times the packed monomial si minus
        cj times divisor j times sj: a shift is one int addition per term.
        The int cofactors ci and cj are 1 over GF(p)."""
        s = {m + si: c * ci for m, c in self.images[i].items()}
        cj = -cj
        return _merge_terms(s, [(m + sj, c * cj) for m, c in self.images[j].items()], self.p)

    def divide(self, work: dict, leads=None, quots=None) -> dict:
        """Divide the image `work`, which is consumed, by `leads` (entries
        made by `lead`; every divisor when None) and return the remainder.
        Quotients are written only when `quots` is given, one dict per lead.

        Over QQ without `quots` only the remainder is asked for, up to a
        nonzero scalar, and `work` and the divisors must be int images (see
        `primitive`).  A step is then a pseudo-step, which stays in ints:
        with c the coefficient to cancel, a the divisor's leading
        coefficient and g = gcd(a, c), it multiplies `work` and the
        remainder so far by a/g and subtracts c/g times the shifted divisor.
        Scaling keeps the support, so every step treats the same term with
        the same divisor as the exact division, and the result is a nonzero
        multiple of the exact remainder, with the same support.

        The heap holds negated monomials, so it pops the DRL-largest first.
        A monomial is pushed when it enters `work`; an entry whose monomial
        has since cancelled out of `work` is stale and skipped.  A treated
        monomial never comes back, since every term a step adds is DRL-below
        it; so each quotient monomial is written once.
        """
        if leads is None:
            leads = self.leads
        p = self.p
        pseudo = not p and quots is None
        exact = not p and quots is not None  # exact over QQ: keep the scalar format
        heap = [-m for m in work]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        packing = self.packing  # its divides test, inlined below
        xmask, sshift, smask, dshift = packing.xmask, packing.sshift, packing.smask, packing.dshift
        rem: dict = {}
        while heap:
            mono = -heappop(heap)
            coeff = work.pop(mono, None)
            if coeff is None:
                continue
            for k, (lead, scale, tail) in enumerate(leads):
                qm = mono - lead
                if qm & xmask <= qm >> sshift & smask <= qm >> dshift:
                    if p:
                        qc = coeff * scale % p
                    elif pseudo:
                        g = math.gcd(scale, coeff)
                        qc, mult = coeff // g, scale // g
                        if mult != 1:
                            work = {m: c * mult for m, c in work.items()}
                            rem = {m: c * mult for m, c in rem.items()}
                    else:
                        qc = coeff if scale == 1 else Fraction(coeff, scale)
                        if type(qc) is Fraction and qc.denominator == 1:
                            qc = qc.numerator
                    if quots is not None:
                        quots[k][qm] = qc
                    # The leading term cancels `mono`, already popped from work.
                    for m2, c2 in tail:
                        mm = qm + m2
                        prev = work.get(mm)
                        nc = -qc * c2 if prev is None else prev - qc * c2
                        if p:
                            nc %= p
                        elif exact and type(nc) is Fraction and nc.denominator == 1:
                            nc = nc.numerator
                        if nc:
                            if prev is None:
                                heappush(heap, -mm)
                            work[mm] = nc
                        else:
                            del work[mm]
                    break
            else:
                rem[mono] = coeff
        return rem


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
    """Buchberger's algorithm with the sugar strategy and the coprimality
    and chain criteria, followed by interreduction to the unique reduced
    basis, on one packed image of G (see the module docstring).

    The inputs join G in order of degree, each reduced by G first; one that
    reduces to zero is skipped.  A reduced input is a nonzero multiple of
    the input minus an element of the ideal of the inputs before it, so G
    keeps generating the ideal of the inputs taken so far, and the reduced
    basis is unique, so the result is the one the unreduced inputs give."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    for g in gens:
        gens[0]._check_compatible(g)
    gens.sort(key=Poly.degree)
    G = _PackedDivisors(gens[0], gens[-1].degree())
    lms: list = []  # leading monomials as exponent tuples, indexed like G
    sugars: list = []  # indexed like G

    # Sugar strategy: the pair of smallest sugar first, ties by the
    # DRL-smaller lcm, then by (i, j).  Leading monomials and sugars never
    # change, so each key is final.
    pending: list = []

    def add(image, sugar):
        G.append(G.primitive(image))
        lm = G.packing.unpack(G.leads[-1][0])
        for k, lk in enumerate(lms):
            lcm = mono_lcm(lk, lm)
            d = sum(lcm)
            pair_sugar = max(sugars[k] + d - sum(lk), sugar + d - sum(lm))
            heapq.heappush(pending, (pair_sugar, drl_key(lcm), k, len(lms)))
        lms.append(lm)
        sugars.append(sugar)

    for g in gens:
        r = G.divide(G.primitive(G.image(g)))
        if r:
            add(r, g.degree())
    treated: set = set()
    while pending:
        sugar, _, i, j = heapq.heappop(pending)
        treated.add((i, j))
        li, lj = lms[i], lms[j]
        lcm = mono_lcm(li, lj)
        if lcm == mono_mul(li, lj):
            continue  # coprime leading terms
        if sum(lcm) > G.packing.max_degree:
            G.repack(sum(lcm))
        packing = G.packing
        packed_lcm = packing.pack(lcm)
        # Chain criterion, with packing.divides inlined on the packed leads.
        xmask, sshift, smask, dshift = packing.xmask, packing.sshift, packing.smask, packing.dshift
        chained = False
        for k, (lead_k, _, _) in enumerate(G.leads):
            q = packed_lcm - lead_k
            if (
                q & xmask <= q >> sshift & smask <= q >> dshift
                and k != i
                and k != j
                and (min(i, k), max(i, k)) in treated
                and (min(j, k), max(j, k)) in treated
            ):
                chained = True
                break
        if chained:
            continue
        # The leading coefficients; both are 1 over GF(p), where G is monic.
        (lead_i, ai, _), (lead_j, aj, _) = G.leads[i], G.leads[j]
        g = math.gcd(ai, aj)
        s = G.difference(i, packed_lcm - lead_i, j, packed_lcm - lead_j, aj // g, ai // g)
        r = G.divide(s)
        if r:
            add(r, sugar)

    # Minimalize: keep only elements whose leading monomial no other kept
    # leading monomial divides.  Int order of packed monomials is DRL order.
    divides = G.packing.divides
    minimal = []
    for k in sorted(range(len(lms)), key=lambda k: G.leads[k][0]):
        if not any(divides(G.leads[h][0], G.leads[k][0]) for h in minimal):
            minimal.append(k)
    images = [G.images[k] for k in minimal]
    leads = [G.leads[k] for k in minimal]

    # Tail-reduce each element once by the other leads.  One pass is
    # enough: leading monomials never change here, and whether a tail is
    # reduced depends on the other leading monomials alone, so a reduced
    # tail stays reduced while the elements after it are reduced.
    if len(images) > 1:
        for idx, g in enumerate(images):
            r = G.divide(dict(g), leads[:idx] + leads[idx + 1 :])
            if r != g:
                images[idx] = G.primitive(r)
                leads[idx] = G.lead(images[idx])

    # The largest packed monomial of an image is its leading one.
    images.sort(key=max, reverse=True)
    return GroebnerBasis(tuple(G.poly(g).monic() for g in images), G.field)


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
