import random
from fractions import Fraction

import pytest

from grobcell import GF, QQ, Poly, char_ok, is_prime, make_cell
from grobcell.cell import hilbert_function
from grobcell.errors import DivisionByZero, FieldMismatch


def test_rational_arithmetic_is_exact():
    assert QQ.parse_scalar("2/4") + QQ.parse_scalar("1/4") == Fraction(3, 4)
    assert -QQ.coerce(-2) == Fraction(2)
    assert QQ.format_scalar(Fraction(-3)) == "-3"
    assert QQ.format_scalar(Fraction(7, 2)) == "7/2"


def test_rational_normalization_is_idempotent():
    c = Fraction(2, -4)
    assert (c.numerator, c.denominator) == (-1, 2)
    again = QQ.parse_scalar(QQ.format_scalar(c))
    assert again == c
    assert (again.numerator, again.denominator) == (-1, 2)


def test_prime_field_inverse():
    F7 = GF(7)
    assert F7.inv(F7.coerce(3)) == F7.coerce(5)
    assert F7.coerce(F7.coerce(3) * F7.coerce(5)) == F7.one
    with pytest.raises(DivisionByZero):
        F7.inv(F7.zero)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(DivisionByZero):
        QQ.inv(QQ.zero)


def test_prime_field_values_canonical():
    F7 = GF(7)
    assert F7.coerce(-1) == 6 and type(F7.coerce(-1)) is int
    assert F7.coerce(15) == 1
    assert F7.format_scalar(F7.coerce(-3)) == "4"
    assert F7.parse_scalar("1/3") == F7.coerce(5)
    assert (F7.zero, F7.one) == (0, 1)


def test_field_mismatch_detected():
    # scalars are plain ints and Fractions; the field lives on the polynomial
    with pytest.raises(FieldMismatch):
        Poly.constant(GF(7), 1, 2) + Poly.constant(GF(11), 1, 2)
    with pytest.raises(FieldMismatch):
        Poly.constant(GF(7), 1, 2) + Poly.constant(QQ, 1, 1)


def test_primality_check():
    assert is_prime(2) and is_prime(10007) and is_prime(9973)
    assert not is_prime(1) and not is_prime(10003) and not is_prime(2**31)
    with pytest.raises(ValueError):
        GF(10003)  # 10003 = 7 * 1429
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(2**63 + 9)  # beyond the machine-word cap even if prime


@pytest.mark.parametrize("field", [QQ, GF(97)])
def test_field_axioms_random(field):
    # over GF(97) on constant polynomials, which reduce their ints mod p
    rng = random.Random(12345)

    def rand_elem():
        if field is QQ:
            num = rng.randint(-50, 50)
            den = rng.randint(1, 50)
            return Fraction(num, den)
        return Poly.constant(field, 1, rng.randrange(97))

    one = field.one if field is QQ else Poly.constant(field, 1, field.one)
    for _ in range(10_000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            if field is QQ:
                inv = field.inv(a)
            else:
                inv = Poly.constant(field, 1, field.inv(a.leading_coeff()))
            assert a * inv == one


def test_char_ok():
    h = hilbert_function(make_cell([0, 5, 7, 11]))
    assert max(i for i, v in enumerate(h) if v) == 10
    assert char_ok(QQ, h)
    assert not char_ok(GF(2), h)
    assert char_ok(GF(13), h)
    assert char_ok(GF(2), [])
