"""Sparse exact polynomials in y, in (x, y) and in (x, y, z).

Monomials are exponent tuples ordered degree-reverse-lexicographically with
x > y > z: higher total degree wins, and ties go to the monomial with the
smaller exponent in the last variable, recursively.  A polynomial stores a
map from monomials to nonzero coefficients plus the field those
coefficients live in, in the format the packed kernel computes in: over QQ
an int when integral and a Fraction with denominator > 1 otherwise, over
GF(p) an int in [0, p).  So every operation here reduces its results mod
p, and over QQ brings a Fraction result that is integral back to an int.
Values are immutable once built, which is what lets a polynomial compute
its leading monomial on first use and keep it.

One loop, _merge_terms, adds terms into a map and drops those that cancel:
from_terms, +, -, * and mul_term here, the parser and the packed
S-polynomial of the division kernel all call it.  The kernel's division
heap loop keeps its own, since it must also push each monomial that enters
the working polynomial onto its heap.

The one-variable ring is K[y] (entries of parameter matrices), the
two-variable ring K[x, y] and the three-variable ring K[x, y, z].
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import itemgetter, mul, neg

from .errors import DivisionByZero, FieldMismatch, ZeroPolynomial

VAR_NAMES = {1: ("y",), 2: ("x", "y"), 3: ("x", "y", "z")}


def drl_key(mono: tuple) -> tuple:
    """Sort key realizing the DRL order: bigger key = bigger monomial."""
    return (sum(mono), *map(neg, mono[:0:-1]))


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _merge_terms(acc: dict, items, p: int) -> dict:
    """Add the (key, coefficient) items into acc, reduced mod p when p is
    nonzero and made ints when integral over QQ, and drop every key whose
    coefficient cancels; return acc.  A key is a monomial in either form,
    an exponent tuple or a packed int."""
    get, pop = acc.get, acc.pop
    for key, c in items:
        prev = get(key)
        if prev is not None:
            c = prev + c
        if p:
            c %= p
        elif type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        if c:
            acc[key] = c
        else:
            pop(key, None)
    return acc


class _DrlPacking:
    """Monomials of total degree at most `top` as ints whose order is DRL.

    The bit fields, high to low, are (e) in K[y], (deg, x) in K[x, y] and
    (deg, x+y, x) in K[x, y, z], each as wide as the bit length of `top`.
    Comparing the ints compares those fields in turn, which is DRL: a
    smaller exponent of the last variable leaves a larger sum of the
    others.  Every field is a sum of exponents, so a monomial packs to a
    fixed weighted sum of its exponents, and the product of two monomials
    whose degree stays within top is the sum of their ints: no field
    exceeds the degree, so none carries.  DRL compares degrees first, which
    is what keeps the degrees inside a division within top.

    Read as (x, x+y, deg), with a field the ring lacks read as the value it
    would hold (x = 0 in K[y], x+y = deg outside K[x, y, z]), a packed
    monomial has fields that never decrease from x to deg.  So `a` divides
    `b` exactly when q = b - a reads that way: a borrow out of any field,
    or a negative q, breaks the order.
    """

    __slots__ = ("nvars", "max_degree", "weights", "xmask", "sshift", "smask", "dshift")

    def __init__(self, nvars: int, top: int):
        w = max(1, top.bit_length())
        b, mask = 1 << w, (1 << w) - 1
        self.nvars = nvars
        self.max_degree = mask  # the largest total degree the fields hold
        self.weights = {1: (1,), 2: (b + 1, b), 3: (b * b + b + 1, b * b + b, b * b)}[nvars]
        # m & xmask, m >> sshift & smask and m >> dshift read x, x+y and deg.
        self.xmask, self.sshift, self.smask, self.dshift = {
            1: (0, 0, -1, 0),
            2: (mask, w, -1, w),
            3: (mask, w, mask, 2 * w),
        }[nvars]

    def pack(self, mono: tuple) -> int:
        return sum(map(mul, mono, self.weights))

    def unpack(self, m: int) -> tuple:
        x, s, d = m & self.xmask, m >> self.sshift & self.smask, m >> self.dshift
        if self.nvars == 1:
            return (s,)
        return (x, s - x) if self.nvars == 2 else (x, s - x, d - s)

    def divides(self, a: int, b: int) -> bool:
        q = b - a
        return q & self.xmask <= q >> self.sshift & self.smask <= q >> self.dshift


class Poly:
    """A sparse polynomial over a fixed field in 1, 2 or 3 variables."""

    __slots__ = ("field", "nvars", "terms", "_lm")

    def __init__(self, field, nvars: int, terms: dict, lm: tuple = None):
        # Internal constructor: `terms` must already be normalized
        # (no zero coefficients, keys of length `nvars`) and is never
        # written to afterwards; `lm`, when given, is its leading monomial.
        self.field = field
        self.nvars = nvars
        self.terms = terms
        self._lm = lm  # leading monomial, cached by leading_monomial()

    @classmethod
    def zero(cls, field, nvars: int) -> "Poly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars: int, c) -> "Poly":
        c = field.coerce(c)
        if not c:
            return cls.zero(field, nvars)
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, field, nvars: int, expts: tuple, coeff=None) -> "Poly":
        c = field.one if coeff is None else field.coerce(coeff)
        if not c:
            return cls.zero(field, nvars)
        return cls(field, nvars, {tuple(expts): c})

    @classmethod
    def from_terms(cls, field, nvars: int, items) -> "Poly":
        coerce = field.coerce
        terms = _merge_terms({}, [(tuple(m), coerce(c)) for m, c in items], field.characteristic)
        return cls(field, nvars, terms)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations -------------------------------------------------

    def _check_compatible(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"expected a polynomial, got {other!r}")
        if other.field != self.field:
            raise FieldMismatch(f"mixed coefficient fields {self.field} and {other.field}")
        if other.nvars != self.nvars:
            raise ValueError(f"mixed polynomial rings ({self.nvars} vs {other.nvars} variables)")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        terms = _merge_terms(dict(self.terms), other.terms.items(), self.field.characteristic)
        return Poly(self.field, self.nvars, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        negated = ((m, -c) for m, c in other.terms.items())
        terms = _merge_terms(dict(self.terms), negated, self.field.characteristic)
        return Poly(self.field, self.nvars, terms)

    def __neg__(self) -> "Poly":
        p = self.field.characteristic
        return Poly(
            self.field, self.nvars, {m: p - c if p else -c for m, c in self.terms.items()}
        )

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        products = (
            (mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )
        terms = _merge_terms({}, products, self.field.characteristic)
        return Poly(self.field, self.nvars, terms)

    def mul_term(self, mono: tuple, coeff) -> "Poly":
        """Multiply by a single term coeff * x^mono."""
        c0 = self.field.coerce(coeff)
        if not c0:
            return Poly.zero(self.field, self.nvars)
        mono = tuple(mono)
        products = ((mono_mul(m, mono), c * c0) for m, c in self.terms.items())
        terms = _merge_terms({}, products, self.field.characteristic)
        return Poly(self.field, self.nvars, terms)

    def scale(self, coeff) -> "Poly":
        return self.mul_term((0,) * self.nvars, coeff)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial cannot be made monic")
        lc = self.leading_coeff()
        return self if lc == 1 else self.scale(self.field.inv(lc))

    # -- term access -----------------------------------------------------

    def leading_monomial(self) -> tuple:
        lm = self._lm
        if lm is None:
            if not self.terms:
                raise ZeroPolynomial("the zero polynomial has no leading term")
            lm = self._lm = max(self.terms, key=drl_key)
        return lm

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def leading_term(self) -> "Poly":
        m = self.leading_monomial()
        return Poly(self.field, self.nvars, {m: self.terms[m]})

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return -math.inf
        return sum(self.leading_monomial())

    def coeff(self, mono: tuple):
        return self.terms.get(tuple(mono), self.field.zero)

    # -- ring changes ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly[{self.nvars}]({format_poly(self)})"

    def __str__(self):
        return format_poly(self)


def variable(field, nvars: int, name: str) -> Poly:
    names = VAR_NAMES[nvars]
    if name not in names:
        raise ValueError(f"variable {name!r} does not live in {names}")
    expts = [0] * nvars
    expts[names.index(name)] = 1
    return Poly.monomial(field, nvars, tuple(expts))


def homogenize(f: Poly) -> Poly:
    """Pad every term of f in K[x,y] with a z power up to deg(f)."""
    if f.nvars != 2:
        raise ValueError("homogenization takes a polynomial in x and y")
    if f.is_zero():
        raise ZeroPolynomial("cannot homogenize the zero polynomial")
    d = f.degree()
    return Poly(f.field, 3, {(a, b, d - a - b): c for (a, b), c in f.terms.items()})


# -- text form ------------------------------------------------------------


# One term of the grammar in parse_poly's docstring, with its leading signs.
_TERM = re.compile(
    r"\s*(?P<sign>(?:[+-]\s*)*)"
    r"(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?\s*(?:\*\s*(?=[xyz]))?)?"
    r"(?P<monos>[xyz](?:\s*\^\s*\d+)?(?:\s*\*\s*[xyz](?:\s*\^\s*\d+)?)*)?\s*"
)
_FOREIGN = re.compile(r"[^\s\dxyz^*/+-]")


def parse_poly(text: str, field, nvars: int) -> Poly:
    """Parse the textual polynomial grammar

    polynomial := sign* term (sign+ term)*
    term       := coeff ['*'] monos | coeff | monos
    coeff      := num ['/' num]
    monos      := var ['^' num] ('*' var ['^' num])*

    with sign '+' or '-', num a run of decimal digits and var a variable of
    the ring.  Whitespace may separate tokens, never the digits of a number.
    Exponents of a repeated variable add up.  A coefficient num/den is
    the reduced fraction, then its field element; the signs in front of a
    term apply to its numerator.  Errors come in text order, after a scan
    for foreign characters; a zero denominator in a coefficient, or over
    GF(p) a reduced denominator divisible by p, raises DivisionByZero.
    """
    bad = _FOREIGN.search(text)
    if bad:
        raise ValueError(f"unexpected character {bad.group()!r} in polynomial text")
    if not text.strip():
        raise ValueError("empty polynomial text")
    names = VAR_NAMES[nvars]
    p = field.characteristic
    terms, pos = [], 0
    while pos < len(text):
        term = _TERM.match(text, pos)
        sign, num, den, monos = term.group("sign", "num", "den", "monos")
        if pos and not sign:
            raise ValueError(f"missing '+' or '-' before position {pos}")
        if not (num or monos):
            raise ValueError(f"expected a term at position {term.end('sign')}")
        c = int(num) if num else 1
        if sign.count("-") % 2:
            c = -c
        if den:
            d = int(den)
            if not d:
                raise DivisionByZero(f"zero denominator in {num + '/' + den!r}")
            g = math.gcd(c, d)
            c, d = c // g, d // g
            if d == 1:
                pass
            elif not p:
                c = Fraction(c, d)
            elif d % p:
                c *= pow(d, -1, p)
            else:
                raise DivisionByZero(f"denominator of {abs(c)}/{d} vanishes in GF({p})")
        expts = [0] * nvars
        # drop the whitespace first: int() refuses some that \s matches
        for factor in "".join(monos.split()).split("*") if monos else ():
            name, _, e = factor.partition("^")
            if name not in names:
                raise ValueError(f"variable {name!r} not allowed in {names}")
            expts[names.index(name)] += int(e) if e else 1
        terms.append((tuple(expts), c))
        pos = term.end()
    return Poly(field, nvars, _merge_terms({}, terms, p))


_XY = itemgetter(0, 1)


class _Powers(dict):
    """The factor "*v^e" of one variable v by its exponent e, "*v" for 1
    and "" for 0.  Exponents below 64 are stored; a larger one is formatted
    on lookup and not kept, so the table never grows."""

    __slots__ = ()

    def __missing__(self, e):
        return f"{self[1]}^{e}"


_POWERS = tuple(
    _Powers({0: "", 1: "*" + v, **{e: f"*{v}^{e}" for e in range(2, 64)}}) for v in "xyz"
)


def format_poly(p: Poly) -> str:
    """Render DRL-descending in the same grammar parse_poly accepts.

    One sort of (degree sums..., monomial, coefficient) tuples orders the
    terms: DRL-descending is descending (deg, x) in two variables and
    (deg, x+y, x) in three, and the monomial's x breaks the ties the sums
    leave.  Each term is then one string, its coefficient followed by the
    factors looked up in _POWERS, one loop per ring; a coefficient 1 or -1
    before a factor prints as "" or "-"."""
    terms = p.terms
    if not terms:
        return "0"
    xs, ys, zs = _POWERS
    out = []
    if p.nvars == 1:
        for (b,), c in sorted(terms.items(), reverse=True):
            c = str(c)
            if (c == "1" or c == "-1") and b:
                out.append(c[:-1] + ys[b][1:])
            else:
                out.append(c + ys[b])
    elif p.nvars == 2:
        for _, (a, b), c in sorted(zip(map(sum, terms), terms, terms.values()), reverse=True):
            c = str(c)
            if (c == "1" or c == "-1") and (a or b):
                out.append(c[:-1] + (xs[a] + ys[b])[1:])
            else:
                out.append(f"{c}{xs[a]}{ys[b]}")
    else:
        keys = zip(map(sum, terms), map(sum, map(_XY, terms)), terms, terms.values())
        for _, _, (a, b, e), c in sorted(keys, reverse=True):
            c = str(c)
            if (c == "1" or c == "-1") and (a or b or e):
                out.append(c[:-1] + (xs[a] + ys[b] + zs[e])[1:])
            else:
                out.append(f"{c}{xs[a]}{ys[b]}{zs[e]}")
    return "+".join(out).replace("+-", "-")
