"""Exact coefficient arithmetic over the rationals and over prime fields.

Rational scalars are plain ``fractions.Fraction`` values: arbitrary
precision, always reduced, always with positive denominator.  Prime-field
scalars are plain ``int`` values in ``[0, p)``, the same format the packed
polynomial kernel computes in.  A scalar does not know its field: ``Poly``
carries the field, checks that operands share it, and reduces sums and
products mod p.  The field objects (:data:`QQ` and :func:`GF`) supply zero,
one, coercion, the inverse, parsing, formatting and sampling.  Division goes
through ``inv``, never through ``/``, which on two ints gives a float.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DivisionByZero

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10**24,
# comfortably past the 2**63 cap on primes accepted below.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_PRIME = 2**63


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for machine-word inputs."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise DivisionByZero(f"zero denominator in {text.strip()!r}") from None


class Rationals:
    """The field of rational numbers; scalars are ``Fraction`` values."""

    kind = "rationals"
    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def inv(self, c) -> Fraction:
        if not c:
            raise DivisionByZero("0 has no inverse in QQ")
        return Fraction(c.denominator, c.numerator)

    def parse_scalar(self, text: str) -> Fraction:
        return _parse_fraction(text)

    def format_scalar(self, c: Fraction) -> str:
        return str(c)

    def scalar_sign_split(self, c: Fraction) -> tuple[bool, str]:
        """(is_negative, magnitude string) for rendering polynomials."""
        return c < 0, str(abs(c))

    def sample_scalar(self, rng: random.Random) -> Fraction:
        # Uniform on the integers -9..9, embedded in QQ.
        return Fraction(rng.randint(-9, 9))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    def to_json(self) -> dict:
        return {"kind": self.kind}


class PrimeField:
    """The prime field GF(p); ``p`` must pass the primality check."""

    kind = "prime_field"

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"field characteristic must be a prime, got {p!r}")
        if p >= MAX_PRIME:
            raise ValueError(f"prime {p} exceeds the machine-word cap {MAX_PRIME}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = self.characteristic = p
        self.zero = 0
        self.one = 1

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DivisionByZero(f"denominator of {x} vanishes in GF({self.p})")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def inv(self, c: int) -> int:
        if c % self.p == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.p})")
        return pow(c, -1, self.p)

    def parse_scalar(self, text: str) -> int:
        return self.coerce(_parse_fraction(text))

    def format_scalar(self, c: int) -> str:
        return str(self.coerce(c))

    def scalar_sign_split(self, c: int) -> tuple[bool, str]:
        return False, str(self.coerce(c))

    def sample_scalar(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def to_json(self) -> dict:
        return {"kind": self.kind, "prime": self.p}


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def char_ok(field, h) -> bool:
    """Whether the field characteristic is 0 or exceeds the largest degree
    in which the given Hilbert function is nonzero."""
    if field.kind == "rationals":
        return True
    support = [i for i, v in enumerate(h) if v != 0]
    if not support:
        return True
    return field.p > max(support)


def field_from_json(obj) -> Rationals | PrimeField:
    if obj is None:
        return QQ
    if not isinstance(obj, dict):
        raise ValueError(f"'field' must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "rationals":
        return QQ
    if kind == "prime_field":
        prime = obj.get("prime")
        if type(prime) is not int:
            raise ValueError(f"'prime' must be an integer, got {prime!r}")
        return GF(prime)
    raise ValueError(f"unknown field kind {kind!r}")
