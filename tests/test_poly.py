import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grobcell import GF, QQ
from grobcell.errors import DivisionByZero, FieldMismatch, ZeroPolynomial
from grobcell.groebner import buchberger, divide
from grobcell.poly import (
    Poly,
    _DrlPacking,
    drl_key,
    format_poly,
    homogenize,
    mono_divides,
    mono_mul,
    parse_poly,
    variable,
)

from conftest import EX3_GENS, term_items
from oracles import dehomogenize, embed, is_homogeneous, plain_format_poly


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
        embed(f, 3), Poly.zero(field, nvars),
        parse_poly(format_poly(f), field, nvars),
    ]
    if f:
        results.append(f.monic())
    if nvars == 2 and f:
        results.append(homogenize(f))
    if nvars == 3:
        results.append(dehomogenize(f))
    # results unpacked from the packed kernel carry the lead it read off
    if g:
        division = divide(f, [g])
        results += [*division.quotients, division.remainder]
    if f or g:
        results += buchberger([f, g]).elements
    for r in results:
        check_leading_monomial(r)


def merged(field, items):
    """The terms of the sum of the items by a plain dict sum, reduced mod p
    over GF(p), with the zero coefficients dropped."""
    p = field.characteristic
    acc = {}
    for m, c in items:
        acc[m] = acc.get(m, 0) + c
    acc = {m: c % p if p else c for m, c in acc.items()}
    return {m: c for m, c in acc.items() if c}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ring_operations_match_dict_sums(data):
    field = data.draw(st.sampled_from([GF(2), GF(3), GF(10007), QQ]))
    nvars = data.draw(st.integers(1, 3))
    fi, gi = data.draw(term_items(field, nvars)), data.draw(term_items(field, nvars))
    f, g = Poly.from_terms(field, nvars, fi), Poly.from_terms(field, nvars, gi)
    negated = [(m, -c) for m, c in gi]
    products = [
        (tuple(a + b for a, b in zip(m1, m2)), c1 * c2) for m1, c1 in fi for m2, c2 in gi
    ]
    cases = [
        (f, fi),
        (f + g, fi + gi),
        (f - g, fi + negated),
        (-g, negated),
        (f * g, products),
    ]
    p = field.characteristic
    for result, items in cases:
        assert result.terms == merged(field, items)
        if p:
            assert all(0 < c < p for c in result.terms.values())
        else:
            assert all(
                type(c) is int and c or type(c) is Fraction and c.denominator > 1
                for c in result.terms.values()
            )
    assert f - f == Poly.zero(field, nvars)
    if p == 2:
        assert f + f == Poly.zero(field, nvars)


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


@st.composite
def rendered_polys(draw):
    """Polynomials in 1-3 variables over QQ (with fractions), GF(2), GF(3)
    and GF(10007), half of those in 3 variables homogeneous like psi_bar's
    outputs: zero, constants, +-1 coefficients and multi-digit exponents,
    some of them past the 64 factors format_poly keeps, all occur."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(10007)]))
    nvars = draw(st.integers(1, 3))
    exponent = st.sampled_from([0, 0, 1, 1, 2, 3, 10, 12, 100, 300])
    mono = st.tuples(*[exponent] * nvars)
    if nvars == 3 and draw(st.booleans()):
        d = draw(exponent)
        mono = st.integers(0, d).flatmap(
            lambda a: st.integers(0, d - a).map(lambda b: (a, b, d - a - b))
        )
    coeff = st.one_of(
        st.sampled_from([1, -1, 0, 2, -2]),
        st.integers(-(10**30), 10**30),
        st.fractions(max_denominator=50) if field == QQ else st.integers(-5, 5),
    )
    items = draw(st.lists(st.tuples(mono, coeff), max_size=12))
    return Poly.from_terms(field, nvars, items)


@settings(max_examples=400, deadline=None)
@given(rendered_polys())
@example(Poly.zero(QQ, 1))
@example(Poly.constant(QQ, 3, -1))
@example(Poly.constant(GF(2), 2, 1))
@example(Poly.from_terms(QQ, 3, [((1, 0, 0), -1), ((0, 1, 0), 1), ((0, 0, 1), Fraction(-1, 2))]))
@example(Poly.from_terms(QQ, 2, [((10**12, 0), 1), ((0, 1), -1)]))  # x^(10^12) - y, at once
@example(Poly.from_terms(GF(3), 3, [((0, 0, 10**12), 2), ((1, 0, 0), 1)]))
def test_format_poly_matches_plain_renderer(f):
    assert format_poly(f) == plain_format_poly(f)


@pytest.mark.parametrize(
    "text, field, nvars, terms",
    [
        ("3x", QQ, 2, {(1, 0): 3}),
        ("3 x", QQ, 2, {(1, 0): 3}),
        ("2/3x", QQ, 2, {(1, 0): Fraction(2, 3)}),
        ("x*x", QQ, 2, {(2, 0): 1}),
        ("--x", QQ, 2, {(1, 0): 1}),
        ("+-y", QQ, 2, {(0, 1): -1}),
        ("x ^ 2", QQ, 2, {(2, 0): 1}),
        ("x^02", QQ, 2, {(2, 0): 1}),
        ("x*y*x^2", QQ, 2, {(3, 1): 1}),
        (" 2 * x*y - 1 / 2 * y ", QQ, 2, {(1, 1): 2, (0, 1): Fraction(-1, 2)}),
        ("y^2 - y^2 + 1", QQ, 1, {(0,): 1}),
        ("3z^2+x", QQ, 3, {(0, 0, 2): 3, (1, 0, 0): 1}),
        ("-1/3*y", GF(7), 2, {(0, 1): 2}),
    ],
)
def test_parse_accepts(text, field, nvars, terms):
    assert parse_poly(text, field, nvars) == Poly.from_terms(field, nvars, terms.items())


@pytest.mark.parametrize(
    "text, field, terms",
    [
        ("7/7", GF(7), {(0,): 1}),
        ("14/7", GF(7), {(0,): 2}),
        ("7/14", GF(7), {(0,): 4}),
        ("0/7", GF(7), {}),
        ("-1/3*y", GF(7), {(1,): 2}),
        ("00012/0008", QQ, {(0,): Fraction(3, 2)}),
        ("+ - -3/6*y", QQ, {(1,): Fraction(1, 2)}),
        ("-4/2*y+6/3", QQ, {(1,): -2, (0,): 2}),
    ],
)
def test_parse_fraction_semantics(text, field, terms):
    """A coefficient num/den is the reduced fraction, then its field
    element; the signs in front of the term apply to it."""
    assert parse_poly(text, field, 1).terms == terms


@pytest.mark.parametrize(
    "text, field, message",
    [
        ("1/7", GF(7), "denominator of 1/7 vanishes in GF(7)"),
        ("3/14", GF(7), "denominator of 3/14 vanishes in GF(7)"),
        ("y-2/14", GF(7), "denominator of 1/7 vanishes in GF(7)"),
        ("0/0", QQ, "zero denominator in '0/0'"),
        ("y+5/00*y", GF(7), "zero denominator in '5/00'"),
    ],
)
def test_parse_fraction_errors(text, field, message):
    with pytest.raises(DivisionByZero) as exc:
        parse_poly(text, field, 1)
    assert str(exc.value) == message


# Text parse_poly refuses, with the error it raises, in ring K[y] (1),
# K[x,y] (2) or K[x,y,z] (3), over QQ.
PARSE_REJECTED = [
    ("x y", 2, ValueError),
    ("x2", 2, ValueError),
    ("x 2", 2, ValueError),
    ("x^2y", 2, ValueError),
    ("x^2^3", 2, ValueError),
    ("1 2", 2, ValueError),
    ("x*", 2, ValueError),
    ("3*", 2, ValueError),
    ("2/", 2, ValueError),
    ("2/ x", 2, ValueError),
    ("+", 2, ValueError),
    ("x+", 2, ValueError),
    ("", 2, ValueError),
    ("  ", 2, ValueError),
    ("a", 2, ValueError),
    ("z", 2, ValueError),
    ("x", 1, ValueError),
    ("1/0", 2, DivisionByZero),
    # errors come in text order, term by term, after a scan for
    # foreign characters
    ("1/0+", 2, DivisionByZero),
    ("1/0*", 2, DivisionByZero),
    ("x 1/0", 2, ValueError),
    ("z+1/0", 2, ValueError),
    ("1/0+a", 2, ValueError),
]


def test_parse_errors():
    for text, nvars, error in PARSE_REJECTED:
        with pytest.raises(error):
            parse_poly(text, QQ, nvars)
            pytest.fail(f"parsed {text!r} in {nvars} variables")


def test_field_mismatch_in_arithmetic():
    with pytest.raises(FieldMismatch):
        P("x") + P("x", field=GF(7))


def test_embed():
    a = parse_poly("2*y-2", QQ, 1)
    assert embed(a, 2) == P("2*y-2")
    assert embed(a, 3) == parse_poly("2*y-2", QQ, 3)
    assert embed(P("x*y"), 3) == parse_poly("x*y", QQ, 3)


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
