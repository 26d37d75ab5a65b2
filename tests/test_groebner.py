import heapq
import importlib.util
import itertools
import math
import random
import types
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grobcell import GF, QQ, make_cell, psi, sample
import grobcell.groebner as groebner_mod
from grobcell.groebner import (
    buchberger,
    divide,
    initial_ideal,
    minimal_monomial_generators,
    s_polynomial,
)
from grobcell.poly import (
    Poly,
    _DrlPacking,
    drl_key,
    homogenize,
    mono_div,
    mono_divides,
    mono_mul,
    parse_poly,
)

from conftest import (
    EX3_GENS,
    M_EX1,
    M_EX3,
    cells,
    evens_recipe,
    param_matrix_from_strings,
    recombine,
    term_items,
    with_fractions,
    zero_matrix,
)
from oracles import NotHomogeneous, is_groebner, minimalize_homogeneous, plain_buchberger


def P(s, field=QQ):
    return parse_poly(s, field, 2)


def random_poly(rng, field, nvars=2, max_deg=5, max_terms=6):
    items = [
        (
            tuple(rng.randint(0, max_deg) for _ in range(nvars)),
            field.coerce(rng.randint(-9, 9)),
        )
        for _ in range(rng.randint(1, max_terms))
    ]
    return Poly.from_terms(field, nvars, items)


def test_divide_trivial():
    res = divide(P("x^2*y"), [P("x^2")])
    assert res.quotients == (P("y"),) and res.remainder.is_zero()
    res = divide(P("y"), [P("x")])
    assert res.quotients[0].is_zero() and res.remainder == P("y")


def test_divide_worked_example_spair_reduces():
    fs = [P(s) for s in EX3_GENS]
    s = fs[0].mul_term((0, 2), QQ.one) - fs[1].mul_term((1, 0), QQ.one)
    assert divide(s, fs).remainder.is_zero()


def test_divide_exactness_random():
    rng = random.Random(3)
    for _ in range(1000):
        f = random_poly(rng, QQ)
        divisors = [g for g in (random_poly(rng, QQ) for _ in range(3)) if not g.is_zero()]
        if not divisors or f.is_zero():
            continue
        res = divide(f, divisors)
        total = res.remainder
        for q, g in zip(res.quotients, divisors):
            total = total + q * g
            if not q.is_zero():
                # multiplying back never overshoots the dividend's lead
                lead = (q * g).leading_monomial()
                assert not _drl_greater(lead, f.leading_monomial())
        assert total == f
        for mono in res.remainder.terms:
            assert not any(mono_divides(g.leading_monomial(), mono) for g in divisors)


def _drl_greater(u, v):
    return drl_key(u) > drl_key(v)


def rescanning_divide(f, divisors):
    """Reference division: rescan the working polynomial for its DRL-largest
    term at every step; ties go to the leftmost divisor."""
    field = f.field
    p = field.characteristic
    lts = [(g.leading_monomial(), g.leading_coeff()) for g in divisors]
    work = dict(f.terms)
    quots = [dict() for _ in divisors]
    rem = {}
    while work:
        mono = max(work, key=drl_key)
        coeff = work[mono]
        for k, (gm, gc) in enumerate(lts):
            if mono_divides(gm, mono):
                qm = mono_div(mono, gm)
                qc = coeff * field.inv(gc)
                prev = quots[k].get(qm)
                quots[k][qm] = qc if prev is None else prev + qc
                if p:
                    quots[k][qm] %= p
                for m2, c2 in divisors[k].terms.items():
                    mm = mono_mul(qm, m2)
                    prev = work.get(mm)
                    nc = -(qc * c2) if prev is None else prev - qc * c2
                    if p:
                        nc %= p
                    if nc:
                        work[mm] = nc
                    else:
                        work.pop(mm, None)
                break
        else:
            rem[mono] = coeff
            del work[mono]
    return (
        tuple(Poly(f.field, f.nvars, q) for q in quots),
        Poly(f.field, f.nvars, rem),
    )


@st.composite
def division_cases(draw, fields=(QQ, GF(101))):
    """Divisors and a dividend r + sum(h_k * g_k) over few monomials, so
    that terms of the working polynomial often cancel and later come back.
    Each variable's exponents are 0, 1 or 2 times a step of 1, 7 or 50, so
    degrees range past 300 and cross several packing widths.  Over QQ the
    coefficients include fractions and the leads need not be monic."""
    field = draw(st.sampled_from(fields))
    coeff = st.sampled_from(
        [Fraction(-3, 2), -1, Fraction(1, 3), 1, 2] if field is QQ else [1, 2, 50, 99, 100]
    )
    nvars = draw(st.integers(2, 3))
    steps = draw(st.tuples(*[st.sampled_from([1, 7, 50])] * nvars))
    mono = st.tuples(*[st.integers(0, 2).map(lambda e, s=s: e * s) for s in steps])
    poly = st.lists(st.tuples(mono, coeff), min_size=1, max_size=4).map(
        lambda items: Poly.from_terms(field, nvars, items)
    )
    divisors = [g for g in draw(st.lists(poly, min_size=1, max_size=3)) if g]
    if not divisors:
        divisors = [Poly.monomial(field, nvars, draw(mono))]
    f = draw(poly)
    for g in divisors:
        f = f + draw(poly) * g
    return f, divisors


@settings(max_examples=200, deadline=None)
@given(division_cases())
def test_divide_matches_rescanning_division(case):
    f, divisors = case
    res = divide(f, divisors)
    quotients, remainder = rescanning_divide(f, divisors)
    assert res.quotients == quotients
    assert res.remainder == remainder


@settings(max_examples=200, deadline=None)
@given(division_cases(fields=[QQ]), st.booleans())
@example((P("x^2+y"), [P("2*y+1")]), False)
@example(  # integral leading coefficients: their quotient is a Fraction, not a float
    (
        parse_poly("x^2*y*z+9/4*x*y*z-1/2*y*z+9/4*z^2+9/4*x+3/4", QQ, 3),
        [parse_poly(s, QQ, 3) for s in ("-3/2*z^2", "-3/2*x*y*z+1/3*y*z-3/2*x-3/2", "-x^2*z")],
    ),
    False,
)
def test_remainder_only_division_is_a_multiple_of_the_exact_remainder(case, in_ideal):
    """Over QQ, _PackedDivisors.divide without quotients, on the primitive
    images of the divisors and the dividend, stays in ints and returns a
    nonzero rational multiple of divide(f, gs).remainder with the same
    support; with in_ideal the dividend is a multiple of one divisor, so
    both remainders are zero.  In the explicit example x^2 joins the
    remainder before the step on y scales the state by 2, so the remainder
    so far must be scaled too: 2*x^2 - 1."""
    f, divisors = case
    if in_ideal:
        f, divisors = f * divisors[0], divisors[:1]
    want = divide(f, divisors).remainder
    assert not (in_ideal and want)
    top = max([f.degree(), 0] + [g.degree() for g in divisors])
    packed = groebner_mod._PackedDivisors(f, top)
    for g in divisors:
        packed.append(packed.primitive(packed.image(g)))
    rem = packed.divide(packed.primitive(packed.image(f)) if f else {})
    assert all(type(c) is int for c in rem.values())
    got = packed.poly(rem)
    assert got.terms.keys() == want.terms.keys()
    if want:
        ratio = got.leading_coeff() * QQ.inv(want.leading_coeff())
        assert all(c == ratio * want.terms[m] for m, c in got.terms.items())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_difference_matches_poly_arithmetic(data):
    """_PackedDivisors.difference(i, si, j, sj, ci, cj) is the image of
    ci*x^si*g_i - cj*x^sj*g_j.  The cofactors are 1 over GF(p), where G is
    monic, and any nonzero ints over QQ, on images with fractions."""
    field = data.draw(st.sampled_from([GF(2), GF(3), GF(10007), QQ]))
    nvars = data.draw(st.integers(1, 3))
    nonzero = term_items(field, nvars).map(lambda items: Poly.from_terms(field, nvars, items))
    gi, gj = data.draw(nonzero.filter(bool)), data.draw(nonzero.filter(bool))
    shift = st.tuples(*[st.integers(0, 2)] * nvars)
    si, sj = data.draw(shift), data.draw(shift)
    cofactor = st.integers(-5, 5).filter(bool) if field is QQ else st.just(1)
    ci, cj = data.draw(cofactor), data.draw(cofactor)
    top = max(gi.degree() + sum(si), gj.degree() + sum(sj))
    packed = groebner_mod._PackedDivisors(gi, top, [gi, gj])
    pack = packed.packing.pack
    s = packed.difference(0, pack(si), 1, pack(sj), ci, cj)
    assert all(s.values())
    assert packed.poly(s) == gi.mul_term(si, ci) - gj.mul_term(sj, cj)


def test_divide_skips_stale_heap_entries(monkeypatch):
    # x^3 + x*y^2 by x^2 + x*y + y^2: the first step cancels x*y^2, the
    # second (on -x^2*y) brings it back, so it sits in the heap twice.  The
    # heap holds negated packed monomials; divide packs degree <= 3 here.
    packing = _DrlPacking(2, 3)
    pushed = []

    def heappush(heap, item):
        pushed.append(packing.unpack(-item))
        heapq.heappush(heap, item)

    monkeypatch.setattr(
        groebner_mod,
        "heapq",
        types.SimpleNamespace(heapify=heapq.heapify, heappop=heapq.heappop, heappush=heappush),
    )
    f, g = P("x^3+x*y^2"), P("x^2+x*y+y^2")
    res = divide(f, [g])
    assert (1, 2) in f.terms and pushed.count((1, 2)) == 1
    assert (res.quotients, res.remainder) == rescanning_divide(f, [g])
    assert res.quotients == (P("x-y"),) and res.remainder == P("x*y^2+y^3")


def test_s_polynomial():
    f0, f1 = P(EX3_GENS[0]), P(EX3_GENS[1])
    # lcm(x^3, x^2 y^2) = x^3 y^2
    assert s_polynomial(f0, f1) == f0.mul_term((0, 2), QQ.one) - f1.mul_term((1, 0), QQ.one)
    assert s_polynomial(f0, f0).is_zero()


def test_buchberger_monomial_passthrough():
    gens = [P("x^3"), P("x^2*y^2"), P("x*y^3"), P("y^5")]
    gb = buchberger(gens)
    assert set(gb.elements) == set(gens)
    assert initial_ideal(gb) == ((0, 5), (2, 2), (1, 3), (3, 0))


def test_buchberger_worked_example_initial_ideal():
    gb = buchberger([P(s) for s in EX3_GENS])
    cell = make_cell(M_EX3)
    assert set(initial_ideal(gb)) == set(cell.minimal_generators())
    # already a basis: certify directly
    assert is_groebner([P(s) for s in EX3_GENS])


def test_buchberger_point_ideal():
    gb = buchberger([P("x-1"), P("y-2")])
    assert set(gb.elements) == {P("x-1"), P("y-2")}
    assert set(initial_ideal(gb)) == {(1, 0), (0, 1)}


def test_buchberger_idempotent():
    gb = buchberger([P(s) for s in EX3_GENS])
    again = buchberger(list(gb.elements))
    assert again.elements == gb.elements


def test_buchberger_finds_new_leading_terms():
    # (x, y^3) arises from generators that hide the pure y power
    gb = buchberger([P("x+y"), P("x*y^2")])
    assert set(initial_ideal(gb)) == {(1, 0), (0, 3)}


def test_monomial_s_pair_reduces_in_monomial_ideal():
    s = s_polynomial(P("x^3"), P("y^5"))
    assert divide(s, [P("x^3"), P("y^5")]).remainder.is_zero()


def test_reduced_basis_unique_across_generating_sets():
    fs = [P(s) for s in EX3_GENS]
    scrambled = [fs[3] + fs[0], fs[1] - fs[2], fs[2], fs[0] + fs[1], fs[3]]
    assert buchberger(fs).elements == buchberger(scrambled).elements


def test_buchberger_output_passes_full_s_pair_check():
    rng = random.Random(14)
    for _ in range(15):
        gens = [g for g in (random_poly(rng, QQ) for _ in range(3)) if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        assert is_groebner(list(gb.elements))
        # reduced: no term of any element is divisible by another's lead
        for idx, g in enumerate(gb.elements):
            assert g.leading_coeff() == QQ.one
            for mono in g.terms:
                for jdx, h in enumerate(gb.elements):
                    if idx != jdx:
                        assert not mono_divides(h.leading_monomial(), mono)


def test_minimal_monomial_generators():
    assert minimal_monomial_generators([(1, 0), (2, 0)]) == ((1, 0),)


def test_minimalize_homogeneous_staircase():
    cell = make_cell(M_EX1)
    gens = [
        homogenize(P(f"x^{a}*y^{b}")) for a, b in
        [(cell.t - i, cell.m[i]) for i in range(cell.t + 1)]
    ]
    assert minimalize_homogeneous(gens) == {3: 1, 7: 1, 8: 1, 11: 1}


def test_minimalize_homogeneous_generic_slot():
    from grobcell import psi_bar

    cell = make_cell(M_EX1)
    rows = [["0"] * 3 for _ in range(4)]
    rows[2][0] = "1"  # the lone constant slot below the diagonal at (3,1)
    A = param_matrix_from_strings(cell, QQ, rows)
    assert minimalize_homogeneous(list(psi_bar(A).polys)) == {3: 1, 7: 1, 11: 1}


def test_minimalize_homogeneous_redundancy():
    gens = [parse_poly("x", QQ, 3), parse_poly("x^2", QQ, 3)]
    assert minimalize_homogeneous(gens) == {1: 1}


def test_minimalize_homogeneous_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneous):
        minimalize_homogeneous([parse_poly("x+1", QQ, 3)])


def test_oracle_agreement_random_psi():
    F = GF(10007)
    rng = random.Random(20)
    from oracles import enumerate_lex_segment_cells
    from grobcell.hilburch import sample

    cells = enumerate_lex_segment_cells(14)
    for k in range(15):
        cell = rng.choice(cells)
        A = sample(cell, F, seed=500 + k)
        gb = buchberger(list(psi(A).polys))
        assert set(initial_ideal(gb)) == set(cell.minimal_generators())


def test_zero_matrix_psi_is_staircase():
    cell = make_cell(M_EX3)
    basis = psi(zero_matrix(cell, QQ))
    assert [f.leading_monomial() for f in basis.polys] == [(3, 0), (2, 2), (1, 3), (0, 5)]
    assert all(len(f.terms) == 1 for f in basis.polys)


def sympy_basis(gens):
    """sympy's grevlex reduced basis of the nonzero generators in K[x, y],
    made monic (mod p over GF(p)) and sorted like GroebnerBasis.elements."""
    import sympy

    x, y = sympy.symbols("x y")
    field = gens[0].field
    scalar = (lambda c: sympy.Rational(c.numerator, c.denominator)) if field is QQ else int
    exprs = [sympy.Add(*[scalar(c) * x**a * y**b for (a, b), c in g.terms.items()]) for g in gens]
    options = {"domain": "QQ"} if field is QQ else {"modulus": field.p}
    theirs = sympy.groebner(exprs, x, y, order="grevlex", **options)
    return tuple(
        sorted(
            (
                Poly.from_terms(
                    field, 2,
                    [(m, Fraction(int(c.p), int(c.q))) for m, c in sympy.Poly(e, x, y).terms()],
                ).monic()
                for e in theirs.exprs
            ),
            key=lambda g: drl_key(g.leading_monomial()),
            reverse=True,
        )
    )


def test_buchberger_matches_sympy_groebner():
    """A second oracle that shares no code with this package: sympy's
    grevlex reduced basis, compared monic (and mod p over GF(p))."""
    pytest.importorskip("sympy")
    rng = random.Random(4)
    kinds = set()
    for k in range(16):
        field = QQ if k % 2 == 0 else GF(10007)
        t = rng.randint(1, 4)
        steps = [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(t - 1)]
        cell = make_cell(list(itertools.accumulate([0] + steps)))
        kinds.add((field is QQ, cell.lex_segment()))
        A = sample(cell, field, seed=rng.randrange(2**32))
        if field is QQ:
            A = with_fractions(A, rng)
        gens = recombine(list(psi(A).polys), rng)
        assert buchberger(gens).elements == sympy_basis(gens), (cell.m, field)
    assert kinds == {(q, lex) for q in (True, False) for lex in (True, False)}


def assert_same_basis(got, want):
    """Equal elements with the same scalar type, coefficient by coefficient."""
    assert got.field == want.field
    assert got.elements == want.elements
    for g, h in zip(got.elements, want.elements):
        assert [type(c) for c in g.terms.values()] == [type(h.terms[m]) for m in g.terms]


def random_curve(rng, field):
    """A plane curve of degree 1 to 3 with random coefficients, fractional
    over QQ, and a nonzero term of top degree."""
    d = rng.randint(1, 3)
    scalar = (
        (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if field is QQ else (lambda: rng.randrange(field.p))
    )
    a = rng.randint(0, d)
    items = [((a, d - a), 1)]
    items += [
        ((i, j - i), scalar())
        for j in range(d + 1) for i in range(j + 1) if rng.random() < 0.5
    ]
    return Poly.from_terms(field, 2, items)


@settings(max_examples=100, deadline=None)
@given(
    cell=cells(max_t=5),
    field=st.sampled_from([QQ, GF(101)]),
    seed=st.integers(0, 2**32 - 1),
    curves=st.booleans(),
)
def test_buchberger_matches_plain_buchberger(cell, field, seed, curves):
    """The packed Buchberger, which takes pairs by sugar, returns exactly
    the basis of the Poly-level one, which takes them by lcm alone: on
    random invertible recombinations of psi(A), lex-segment cells or not,
    with fractional coefficients over QQ, and on 2-3 random plane curves of
    degree at most 3, affine input on which the two pair orders differ."""
    rng = random.Random(seed)
    if curves:
        gens = [random_curve(rng, field) for _ in range(rng.randint(2, 3))]
        assert_same_basis(buchberger(gens), plain_buchberger(gens))
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small characteristic
        A = sample(cell, field, seed)
    if field is QQ:
        A = with_fractions(A, rng)
    gens = recombine(list(psi(A).polys), rng)
    assert_same_basis(buchberger(gens), plain_buchberger(gens))


def spy_on_appends(monkeypatch):
    """The list of images that buchberger appends to G, in order, filled as
    it runs.  A re-packing re-appends every image of G; those are left out."""
    appended = []
    append, repack = groebner_mod._PackedDivisors.append, groebner_mod._PackedDivisors.repack

    def spy_append(self, image):
        appended.append(image)
        append(self, image)

    def spy_repack(self, top):
        n = len(appended)
        repack(self, top)
        del appended[n:]

    monkeypatch.setattr(groebner_mod._PackedDivisors, "append", spy_append)
    monkeypatch.setattr(groebner_mod._PackedDivisors, "repack", spy_repack)
    return appended


@pytest.mark.parametrize("field", [QQ, GF(10007)])
def test_buchberger_reduces_each_input_before_pairing(field, monkeypatch):
    """Inputs join G by degree, each reduced by G, and one that reduces to
    zero is skipped.  psi(A) on m = (0, 2, 4, 6), fractional over QQ, is a
    Groebner basis with generators f_0..f_3 of the distinct degrees 3..6.
    Add a duplicate of f_3, h = (x + y) f_3 - y^2 f_0 of degree 7, which
    lies in the ideal of the others, and a zero.  Once f_0..f_3 have joined,
    G is a Groebner basis of that ideal, so the second f_3 and h reduce to
    zero and no S-pair appends: exactly four images join G, whether the
    generators come in ascending or in descending degree order.  The basis
    is plain_buchberger's, and sympy's when it is installed, as it is for a
    recombination of the same generators.  An all-zero input is refused."""
    appended = spy_on_appends(monkeypatch)
    rng = random.Random(5)
    A = sample(make_cell([0, 2, 4, 6]), field, 5)
    if field is QQ:
        A = with_fractions(A, rng)
    fs = list(psi(A).polys)
    assert [f.degree() for f in fs] == [3, 4, 5, 6]
    h = P("x+y", field) * fs[3] - P("y^2", field) * fs[0]
    ascending = fs + [fs[3], h, Poly.zero(field, 2)]
    want = plain_buchberger(ascending)
    for gens in (ascending, ascending[::-1]):
        appended.clear()
        assert_same_basis(buchberger(gens), want)
        assert len(appended) == 4
    assert_same_basis(buchberger(recombine(ascending[:-1], rng)), want)
    if importlib.util.find_spec("sympy"):
        assert want.elements == sympy_basis(ascending[:-1])
    with pytest.raises(ValueError):
        buchberger([Poly.zero(field, 2)] * 2)


def test_buchberger_has_no_coefficient_growth_cliff(monkeypatch):
    """On the m=2i, t=8 recipe input over QQ the reduced basis has 9
    elements with coefficients of at most 33 bits.  Pairs taken by lcm
    alone appended 42 elements to G, with coefficients of up to 10,616
    bits; taken by sugar, 17 of at most 33 bits.  Re-packings of G are not
    elements joining it, so the count leaves them out."""
    appended = spy_on_appends(monkeypatch)
    _, gens = evens_recipe(8)
    assert len(buchberger(gens).elements) == 9
    assert len(appended) <= 20
    bits = max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for image in appended
        for c in map(Fraction, image.values())
    )
    assert bits <= 64


def test_buchberger_keeps_primitive_int_images(monkeypatch):
    """Over QQ, G holds primitive images: every image buchberger appends,
    reduced input or S-pair remainder, has int coefficients, content 1 and
    a positive leading coefficient.  On the m=2i, t=8 recipe and on a
    recombination of psi(A) with fractional coefficients the reduced inputs
    already do the S-pairs' work: G is one image per input.  The input loop
    appends at most one image per input, so on the fractional curves
    x^2*y/2 - 3/4 and 2x*y^2/3 - 5, where G grows past its inputs, S-pair
    remainders are appended and checked too.  Only the returned basis is
    monic."""
    appended = spy_on_appends(monkeypatch)
    rng = random.Random(7)
    A = with_fractions(sample(make_cell(M_EX3), QQ, 7), rng)
    fractional = recombine(list(psi(A).polys), rng)
    assert any(c.denominator != 1 for g in fractional for c in g.terms.values())
    curves = [P("1/2*x^2*y-3/4"), P("2/3*x*y^2-5")]
    for gens, pairs_append in ((evens_recipe(8)[1], False), (fractional, False), (curves, True)):
        appended.clear()
        buchberger(gens)
        assert len(appended) > len(gens) if pairs_append else len(appended) == len(gens)
        for image in appended:
            assert all(type(c) is int for c in image.values())
            assert math.gcd(*image.values()) == 1
            assert image[max(image)] > 0


def test_buchberger_tail_reduces_each_element_once(monkeypatch):
    """Tail reduction divides each element of the minimal basis once by the
    other leads; the only divisions given explicit leads are those.  In
    the worked example's basis f_1 has a tail term x^3, which f_0 reduces,
    and x^2 + y has the tail y, which y - 1 reduces."""
    tail_calls = []
    divide_packed = groebner_mod._PackedDivisors.divide

    def spy(self, work, leads=None, quots=None):
        if leads is not None:
            tail_calls.append(len(leads))
        return divide_packed(self, work, leads, quots)

    monkeypatch.setattr(groebner_mod._PackedDivisors, "divide", spy)
    for gens in ([P(s) for s in EX3_GENS], [P("x^2+y"), P("y-1")]):
        tail_calls.clear()
        gb = buchberger(gens)
        assert_same_basis(gb, plain_buchberger(gens))
        n = len(gb.elements)
        assert n >= 2 and tail_calls == [n - 1] * n


def test_buchberger_widens_packing(monkeypatch):
    # The generators have degree 3, so G is first packed for degrees up to
    # 3.  The S-pair of x^2*y and x*y^2 has an lcm of degree 4; that of
    # x^2*y and y^3 has one of degree 5, and reducing it meets x^4, whose x
    # exponent would carry out of a field packed for degree 3.
    widened = []
    repack = groebner_mod._PackedDivisors.repack

    def spy(self, top):
        widened.append((self.packing.max_degree, top))
        repack(self, top)

    monkeypatch.setattr(groebner_mod._PackedDivisors, "repack", spy)
    for field in (QQ, GF(101)):
        gens = [P("x^2*y-1", field), P("x*y^2-1", field)]
        gb = buchberger(gens)
        assert gb.elements == (P("y^3-1", field), P("x-y", field))
        assert_same_basis(gb, plain_buchberger(gens))
        gens = [P("x^2*y", field), P("y^3+x^2", field)]
        gb = buchberger(gens)
        assert gb.elements == (P("x^4", field), P("x^2*y", field), P("y^3+x^2", field))
        assert_same_basis(gb, plain_buchberger(gens))
    assert widened == [(3, 4), (3, 5)] * 2
