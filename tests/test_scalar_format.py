"""Every coefficient that an operation hands back is in its field's one
scalar format: over QQ an int when integral and a Fraction with
denominator > 1 otherwise, over GF(p) an int in (0, p)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grobcell import GF, QQ, canonicalize, psi, sample
from grobcell.canonical import (
    _find_violation,
    _strip_x_t_tails,
    canonical_matrix,
    extract_syzygies,
    reduction_move,
)
from grobcell.groebner import buchberger, divide, s_polynomial
from grobcell.poly import parse_poly

from conftest import cells, perturbed_basis, with_fractions

FIELDS = [QQ, GF(2), GF(3), GF(101), GF(10007)]


def assert_format(*polys):
    for f in polys:
        for c in f.terms.values():
            if f.field == QQ:
                assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (f, c)
            else:
                assert type(c) is int and 0 < c < f.field.p, (f, c)


def assert_matrix_format(M):
    assert_format(*(e for row in M.entries for e in row))


def test_fraction_arithmetic_landing_on_integers():
    """Fraction results that are integral come back as ints."""

    def P(text, nvars=2):
        return parse_poly(text, QQ, nvars)

    cases = {
        "1/2*y + 1/2*y": (P("1/2*y") + P("1/2*y"), {(0, 1): 1}),
        "(2/3*x)*(3/2*y)": (P("2/3*x") * P("3/2*y"), {(1, 1): 1}),
        "monic(2/3*x + 4/3)": (P("2/3*x+4/3").monic(), {(1, 0): 1, (0, 0): 2}),
        "3/2*y - 1/2*y": (P("3/2*y") - P("1/2*y"), {(0, 1): 1}),
        "(x+1/3) * 3": (P("x+1/3").scale(3), {(1, 0): 3, (0, 0): 1}),
        "1/2 * 4/3*x*y, shifted by y": (P("4/3*x").mul_term((0, 1), Fraction(3, 2)), {(1, 1): 2}),
        "2/3*x + 1/3*x": (P("2/3*x+1/3*x"), {(1, 0): 1}),
        "divide(x^2 - 1/4, x - 1/2)": (divide(P("x^2-1/4"), [P("x-1/2")]).quotients[0],
                                      {(1, 0): 1, (0, 0): Fraction(1, 2)}),
    }
    for name, (f, terms) in cases.items():
        assert f.terms == terms, name
        assert_format(f)
    assert divide(P("x^2-1/4"), [P("2*x-1")]).quotients[0].terms == {
        (1, 0): Fraction(1, 2), (0, 0): Fraction(1, 4)}


@st.composite
def poly_texts(draw, field):
    """Text of a polynomial in x, y with up to four terms of degree <= 3;
    numerators run past the small primes and may be negative, and over QQ
    the denominators vary."""
    out = ""
    for _ in range(draw(st.integers(1, 4))):
        num = draw(st.integers(-30, 30))
        den = draw(st.integers(1, 6))
        if field != QQ and den % field.p == 0:
            den = 1
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        out += f"{'-' if num < 0 else '+'}{abs(num)}/{den}*x^{a}*y^{b}"
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_poly_operations_keep_scalar_format(data, field):
    f, g, h = (parse_poly(data.draw(poly_texts(field)), field, 2) for _ in range(3))
    c = data.draw(st.integers(-30, 30))
    assert_format(f, g, h, f + g, f - g, g - f, f * g, -f, f.mul_term((1, 2), c))
    nonzero = [e for e in (f, g, h) if e]
    assert_format(*(e.monic() for e in nonzero))
    if len(nonzero) >= 2:
        assert_format(s_polynomial(nonzero[0], nonzero[1]))
        res = divide(f, nonzero[:2])
        assert_format(res.remainder, *res.quotients)
        assert_format(*buchberger(nonzero).elements)


@pytest.mark.filterwarnings("ignore:characteristic of GF")
@settings(max_examples=40, deadline=None)
@given(cell=cells(max_t=4), field=st.sampled_from(FIELDS), seed=st.integers(0, 2**32 - 1))
def test_maps_keep_scalar_format(cell, field, seed):
    A = sample(cell, field, seed)
    if field == QQ:
        A = with_fractions(A, random.Random(seed))
    assert_matrix_format(A)
    basis = psi(A)
    assert_format(*basis.polys)
    assert_matrix_format(canonical_matrix(basis)[0])
    # a unit upper-triangular recombination: same ideal, no Groebner basis
    fs = basis.polys
    gens = [f + g.scale(2) for f, g in zip(fs, fs[1:])] + [fs[-1]]
    assert_format(*buchberger(gens).elements)
    assert_matrix_format(canonicalize(gens, cell)[0])
    carried = _strip_x_t_tails(perturbed_basis(cell, field, seed))
    M = extract_syzygies(carried)
    assert_matrix_format(M)
    slot = (1, 1)
    while (slot := _find_violation(M, slot)) is not None:
        M, carried = reduction_move(M, carried, *slot)
        assert_matrix_format(M)
        assert_format(*carried.polys)
