import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grobcell import GF, QQ
from grobcell.errors import FieldMismatch, ZeroPolynomial
from grobcell.groebner import divide
from grobcell.poly import (
    Poly,
    _DrlPacking,
    dehomogenize,
    drl_key,
    format_poly,
    homogenize,
    mono_divides,
    mono_mul,
    parse_poly,
    variable,
)

from conftest import EX3_GENS
from oracles import is_homogeneous


def P(s, field=QQ, nvars=2):
    return parse_poly(s, field, nvars)


def random_poly(rng, field, nvars, max_deg=6, max_terms=8):
    items = []
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = field.coerce(rng.randint(-9, 9)) if field is QQ else field.coerce(rng.randrange(97))
        items.append((mono, c))
    return Poly.from_terms(field, nvars, items)


def test_product_expansion():
    assert P("y^2+1") * P("y-1") == P("y^3-y^2+y-1")


def test_leading_term_of_worked_example():
    f0 = P(EX3_GENS[0])
    assert f0.leading_monomial() == (3, 0)
    assert f0.leading_coeff() == QQ.one


def check_leading_monomial(f):
    """Twice, so the second call reads the cached value."""
    for _ in range(2):
        if f.terms:
            assert f.leading_monomial() == max(f.terms, key=drl_key)
        else:
            with pytest.raises(ZeroPolynomial):
                f.leading_monomial()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_leading_monomial_matches_rescan(data):
    field = data.draw(st.sampled_from([QQ, GF(101)]))
    nvars = data.draw(st.integers(1, 3))
    coeff = (
        st.fractions(min_value=-3, max_value=3, max_denominator=4)
        if field is QQ
        else st.integers(0, 100)
    )
    mono = st.tuples(*[st.integers(0, 3)] * nvars)
    poly = st.lists(st.tuples(mono, coeff), max_size=6).map(
        lambda items: Poly.from_terms(field, nvars, items)
    )
    f, g = data.draw(poly), data.draw(poly)
    m, c = data.draw(mono), field.coerce(data.draw(coeff))
    # operands first, so a result that wrongly inherited a cached value shows
    for p in (f, g):
        check_leading_monomial(p)
    results = [
        f + g, f - g, f - f, f * g, -f,
        f.mul_term(m, c), f.scale(c), f.scale(0),
        f.embed(3), Poly.zero(field, nvars),
        parse_poly(format_poly(f), field, nvars),
    ]
    if f:
        results.append(f.monic())
    if nvars == 2 and f:
        results.append(homogenize(f))
    if nvars == 3:
        results.append(dehomogenize(f))
    for r in results:
        check_leading_monomial(r)


def test_drl_tie_break():
    # Same total degree: the smaller y exponent wins.
    assert drl_key((2, 2)) > drl_key((1, 3))
    assert P("x^2*y^2+x*y^3").leading_monomial() == (2, 2)


def test_drl_order_laws_randomized():
    rng = random.Random(5)
    monos = [tuple(rng.randint(0, 8) for _ in range(3)) for _ in range(120)]
    for u in monos:
        for v in monos:
            if drl_key(u) > drl_key(v):
                assert not drl_key(v) > drl_key(u)
    for _ in range(2000):
        u, v, w = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        if drl_key(u) > drl_key(v) and drl_key(v) > drl_key(w):
            assert drl_key(u) > drl_key(w)
        if drl_key(u) > drl_key(v):
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert drl_key(uw) > drl_key(vw)


@st.composite
def packing_cases(draw):
    """Two monomials b and a near b: each exponent of a is b's, lowered by
    up to 2 or raised by 1, so a divides b about half the time.  Exponents
    reach 300, as in x^300, y."""
    nvars = draw(st.integers(1, 3))
    b = draw(st.tuples(*[st.integers(0, 300)] * nvars))
    shifts = draw(st.tuples(*[st.integers(-1, 2)] * nvars))
    a = tuple(max(0, e - s) for e, s in zip(b, shifts))
    return a, b


@settings(max_examples=300, deadline=None)
@given(packing_cases())
@example(((255,), (0,)))
@example(((300, 0), (0, 1)))
@example(((0, 0, 1), (1, 0, 0)))
@example(((127, 0, 0), (0, 128, 255)))
def test_drl_packing_laws(case):
    a, b = case
    ab = mono_mul(a, b)
    # The narrowest packings: one just holds a*b, the other a and b.
    for packing, monos in (
        (_DrlPacking(len(a), sum(ab)), (a, b, ab)),
        (_DrlPacking(len(a), max(sum(a), sum(b))), (a, b)),
    ):
        pack = packing.pack
        for m in monos:
            assert packing.unpack(pack(m)) == m
        for u in monos:
            for v in monos:
                assert (pack(u) > pack(v)) == (drl_key(u) > drl_key(v))
                assert (pack(u) == pack(v)) == (u == v)
                assert packing.divides(pack(u), pack(v)) == mono_divides(u, v)
    packing = _DrlPacking(len(a), sum(ab))
    assert packing.pack(a) + packing.pack(b) == packing.pack(ab)


def test_homogenize_golden():
    assert homogenize(P("x^2+y-3")) == parse_poly("x^2+y*z-3*z^2", QQ, 3)
    assert homogenize(P("x^4")) == parse_poly("x^4", QQ, 3)
    # every term of the worked example's cubic pads to degree 3
    f0h = homogenize(P(EX3_GENS[0]))
    assert is_homogeneous(f0h) and f0h.degree() == 3
    assert f0h.coeff((0, 0, 3)) == QQ.coerce(-2)


def test_dehomogenize_golden():
    assert dehomogenize(parse_poly("x^2+y*z-3*z^2", QQ, 3)) == P("x^2+y-3")
    assert dehomogenize(parse_poly("z^3", QQ, 3)) == P("1")
    # z*(x+z) dehomogenizes to x+1 and one z power reconstructs it
    F = parse_poly("z", QQ, 3) * parse_poly("x+z", QQ, 3)
    f = dehomogenize(F)
    assert f == P("x+1")
    assert homogenize(f).mul_term((0, 0, 1), QQ.one) == F


def test_hom_deh_round_trip_random():
    rng = random.Random(99)
    for _ in range(1000):
        f = random_poly(rng, QQ, 2)
        if f.is_zero():
            continue
        assert dehomogenize(homogenize(f)) == f


def test_homogenize_preserves_leading_term():
    rng = random.Random(7)
    for _ in range(300):
        f = random_poly(rng, QQ, 2)
        if f.is_zero():
            continue
        a, b = f.leading_monomial()
        d = f.degree()
        assert homogenize(f).leading_monomial() == (a, b, d - a - b)


def test_homogenize_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        homogenize(Poly.zero(QQ, 2))


def test_text_round_trip_and_shape():
    rng = random.Random(17)
    unit_coeff = re.compile(r"(^|[+-])1\*")
    for field in (QQ, GF(97)):
        for _ in range(300):
            f = random_poly(rng, field, rng.choice((1, 2, 3)))
            text = format_poly(f)
            assert parse_poly(text, field, f.nvars) == f
            assert not unit_coeff.search(text), text
    # output is DRL-descending and never prints a unit coefficient
    f = P("y^5-2*x*y^3+4*y^4+5*x*y^2")
    assert format_poly(f) == "y^5-2*x*y^3+4*y^4+5*x*y^2"
    assert format_poly(P("x+1")) == "x+1"
    assert format_poly(P("-x-1")) == "-x-1"
    assert format_poly(Poly.zero(QQ, 2)) == "0"
    assert format_poly(P("7/2*x*y")) == "7/2*x*y"


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_poly("x+", QQ, 2)
    with pytest.raises(ValueError):
        parse_poly("z", QQ, 2)
    with pytest.raises(ValueError):
        parse_poly("x 2", QQ, 2)
    with pytest.raises(ValueError):
        parse_poly("", QQ, 2)


def test_field_mismatch_in_arithmetic():
    with pytest.raises(FieldMismatch):
        P("x") + P("x", field=GF(7))


def test_embed():
    a = parse_poly("2*y-2", QQ, 1)
    assert a.embed(2) == P("2*y-2")
    assert a.embed(3) == parse_poly("2*y-2", QQ, 3)
    assert P("x*y").embed(3) == parse_poly("x*y", QQ, 3)


def test_uni_divmod_random():
    # division by one polynomial in K[y] is Euclidean division
    rng = random.Random(31)
    for k in range(1000):
        field = QQ if k % 2 == 0 else GF(101)
        a = random_poly(rng, field, 1, max_deg=9, max_terms=5)
        b = random_poly(rng, field, 1, max_deg=4, max_terms=4)
        if b.is_zero():
            continue
        res = divide(a, [b])
        (q,), r = res.quotients, res.remainder
        assert q * b + r == a
        assert r.degree() < b.degree()


def test_variable_helper():
    assert variable(QQ, 2, "x") == P("x")
    with pytest.raises(ValueError):
        variable(QQ, 1, "x")
