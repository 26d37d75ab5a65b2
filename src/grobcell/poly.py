"""Sparse exact polynomials in y, in (x, y) and in (x, y, z).

Monomials are exponent tuples ordered degree-reverse-lexicographically with
x > y > z: higher total degree wins, and ties go to the monomial with the
smaller exponent in the last variable, recursively.  A polynomial stores a
map from monomials to nonzero coefficients plus the field those
coefficients live in: Fractions over QQ, ints in [0, p) over GF(p), the
format the packed kernel computes in, so every operation here reduces its
results mod p.  Values are immutable once built, which is what lets a
polynomial compute its leading monomial on first use and keep it.

The one-variable ring is K[y] (entries of parameter matrices), the
two-variable ring K[x, y] and the three-variable ring K[x, y, z].
"""

from __future__ import annotations

import math
from operator import mul

from .errors import FieldMismatch, ZeroPolynomial

VAR_NAMES = {1: ("y",), 2: ("x", "y"), 3: ("x", "y", "z")}


def drl_key(mono: tuple) -> tuple:
    """Sort key realizing the DRL order: bigger key = bigger monomial."""
    return (sum(mono),) + tuple(-e for e in mono[:0:-1])


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


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

    __slots__ = ("nvars", "weights", "xmask", "sshift", "smask", "dshift")

    def __init__(self, nvars: int, top: int):
        w = max(1, top.bit_length())
        b, mask = 1 << w, (1 << w) - 1
        self.nvars = nvars
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

    def __init__(self, field, nvars: int, terms: dict):
        # Internal constructor: `terms` must already be normalized
        # (no zero coefficients, keys of length `nvars`) and is never
        # written to afterwards.
        self.field = field
        self.nvars = nvars
        self.terms = terms
        self._lm = None  # leading monomial, cached by leading_monomial()

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
        p = field.characteristic
        acc: dict = {}
        for mono, c in items:
            mono = tuple(mono)
            c = field.coerce(c)
            prev = acc.get(mono)
            c = c if prev is None else prev + c
            if p:
                c %= p
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return cls(field, nvars, acc)

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
        p = self.field.characteristic
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            prev = acc.get(mono)
            nc = c if prev is None else prev + c
            if p:
                nc %= p
            if nc:
                acc[mono] = nc
            else:
                acc.pop(mono, None)
        return Poly(self.field, self.nvars, acc)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        p = self.field.characteristic
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            prev = acc.get(mono)
            nc = -c if prev is None else prev - c
            if p:
                nc %= p
            if nc:
                acc[mono] = nc
            else:
                acc.pop(mono, None)
        return Poly(self.field, self.nvars, acc)

    def __neg__(self) -> "Poly":
        p = self.field.characteristic
        return Poly(
            self.field, self.nvars, {m: p - c if p else -c for m, c in self.terms.items()}
        )

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        p = self.field.characteristic
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                c = c1 * c2
                prev = acc.get(mono)
                nc = c if prev is None else prev + c
                if p:
                    nc %= p
                if nc:
                    acc[mono] = nc
                else:
                    acc.pop(mono, None)
        return Poly(self.field, self.nvars, acc)

    def mul_term(self, mono: tuple, coeff) -> "Poly":
        """Multiply by a single term coeff * x^mono."""
        c0 = self.field.coerce(coeff)
        if not c0:
            return Poly.zero(self.field, self.nvars)
        mono = tuple(mono)
        p = self.field.characteristic
        return Poly(
            self.field,
            self.nvars,
            {mono_mul(m, mono): c * c0 % p if p else c * c0 for m, c in self.terms.items()},
        )

    def scale(self, coeff) -> "Poly":
        return self.mul_term((0,) * self.nvars, coeff)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial cannot be made monic")
        return self.scale(self.field.inv(self.leading_coeff()))

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

    def sorted_terms(self) -> list:
        """Terms as (monomial, coefficient) pairs, DRL-descending."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=drl_key, reverse=True)]

    # -- ring changes ----------------------------------------------------

    def embed(self, nvars: int) -> "Poly":
        """View this polynomial in a larger ring: K[y] -> K[x,y] -> K[x,y,z]."""
        if nvars == self.nvars:
            return self
        if nvars < self.nvars:
            raise ValueError("can only embed into a larger ring")
        if self.nvars == 1:
            pad = lambda m: (0,) + m + (0,) * (nvars - 2)
        else:  # 2 -> 3
            pad = lambda m: m + (0,)
        return Poly(self.field, nvars, {pad(m): c for m, c in self.terms.items()})

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


def dehomogenize(F: Poly) -> Poly:
    """Substitute z = 1 into a polynomial in K[x,y,z]."""
    if F.nvars != 3:
        raise ValueError("dehomogenization takes a polynomial in x, y and z")
    return Poly.from_terms(F.field, 2, (((a, b), c) for (a, b, _), c in F.terms.items()))


# -- text form ------------------------------------------------------------


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j]))
            i = j
        elif c in "xyz":
            tokens.append(("var", c))
            i += 1
        elif c in "^*/+-":
            tokens.append((c, c))
            i += 1
        else:
            raise ValueError(f"unexpected character {c!r} in polynomial text")
    return tokens


def parse_poly(text: str, field, nvars: int) -> Poly:
    """Parse the textual polynomial grammar.

    polynomial := term (('+'|'-') term)*
    term       := coeff ['*' monos] | monos
    monos      := var['^'exp] ('*' var['^'exp])*
    """
    names = VAR_NAMES[nvars]
    var_index = {v: k for k, v in enumerate(names)}
    toks = _tokenize(text)
    if not toks:
        raise ValueError("empty polynomial text")

    pos = 0

    def peek():
        return toks[pos][0] if pos < len(toks) else None

    terms = []
    first = True
    while pos < len(toks):
        nminus = 0
        saw_sign = False
        while peek() in ("+", "-"):
            if peek() == "-":
                nminus += 1
            pos += 1
            saw_sign = True
        if not first and not saw_sign:
            raise ValueError("missing '+' or '-' between terms")
        if pos >= len(toks):
            raise ValueError("dangling sign at end of polynomial")

        coeff = None
        expts = [0] * nvars
        have_factor = False

        if peek() == "num":
            numtxt = toks[pos][1]
            pos += 1
            if peek() == "/":
                pos += 1
                if peek() != "num":
                    raise ValueError("expected denominator after '/'")
                numtxt += "/" + toks[pos][1]
                pos += 1
            coeff = field.parse_scalar(numtxt)
            have_factor = True
            if peek() == "*":
                pos += 1
                if peek() != "var":
                    raise ValueError("expected a variable after '*'")

        while peek() == "var":
            name = toks[pos][1]
            pos += 1
            if name not in var_index:
                raise ValueError(f"variable {name!r} not allowed in {names}")
            e = 1
            if peek() == "^":
                pos += 1
                if peek() != "num":
                    raise ValueError("expected an exponent after '^'")
                e = int(toks[pos][1])
                pos += 1
            expts[var_index[name]] += e
            have_factor = True
            if peek() == "*":
                pos += 1
                if peek() != "var":
                    raise ValueError("expected a variable after '*'")
                continue
            break

        if not have_factor:
            raise ValueError("expected a term")
        c = field.one if coeff is None else coeff
        if nminus % 2:
            c = -c
        terms.append((tuple(expts), c))
        first = False

    return Poly.from_terms(field, nvars, terms)


def format_poly(p: Poly) -> str:
    """Render DRL-descending in the same grammar parse_poly accepts."""
    if p.is_zero():
        return "0"
    names = VAR_NAMES[p.nvars]
    out = []
    for k, (mono, c) in enumerate(p.sorted_terms()):
        neg, mag = p.field.scalar_sign_split(c)
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, mono)
            if e
        ]
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = mag + "*" + "*".join(factors)
        if k == 0:
            out.append("-" + body if neg else body)
        else:
            out.append(("-" if neg else "+") + body)
    return "".join(out)
