import heapq
import itertools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grobcell import GF, QQ, make_cell, psi, sample, zero_matrix
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

from conftest import EX3_GENS, M_EX1, M_EX3, with_fractions
from oracles import NotHomogeneous, is_groebner, minimalize_homogeneous


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
def division_cases(draw):
    """Divisors and a dividend r + sum(h_k * g_k) over few monomials, so
    that terms of the working polynomial often cancel and later come back.
    Each variable's exponents are 0, 1 or 2 times a step of 1, 7 or 50, so
    degrees range past 300 and cross several packing widths."""
    field = draw(st.sampled_from([QQ, GF(101)]))
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
    from grobcell import param_matrix_from_strings, psi_bar

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


def recombine(fs, rng):
    """L*U*fs with L unit lower- and U unit upper-triangular scalar matrices
    (off-diagonal entries in {-2, -1, 1, 2}): the same ideal, generators
    that are no longer a Groebner basis."""
    n = len(fs)
    draw = lambda: rng.choice((-2, -1, 1, 2))
    L = [[1 if i == j else (draw() if j < i else 0) for j in range(n)] for i in range(n)]
    U = [[1 if i == j else (draw() if j > i else 0) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        g = Poly.zero(fs[0].field, 2)
        for j in range(n):
            c = sum(L[i][k] * U[k][j] for k in range(n))
            if c:
                g = g + fs[j].scale(c)
        out.append(g)
    return out


def test_buchberger_matches_sympy_groebner():
    """A second oracle that shares no code with this package: sympy's
    grevlex reduced basis, compared monic (and mod p over GF(p))."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def to_sympy(f):
        scalar = (
            (lambda c: sympy.Rational(c.numerator, c.denominator))
            if f.field is QQ else (lambda c: c)
        )
        return sympy.Add(*[scalar(c) * x**a * y**b for (a, b), c in f.terms.items()])

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
        options = {"domain": "QQ"} if field is QQ else {"modulus": field.p}
        theirs = sympy.groebner([to_sympy(g) for g in gens], x, y, order="grevlex", **options)
        want = sorted(
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
        assert buchberger(gens).elements == tuple(want), (cell.m, field)
    assert kinds == {(q, lex) for q in (True, False) for lex in (True, False)}
