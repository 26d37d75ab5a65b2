"""Shared golden data and helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from grobcell import (
    QQ,
    IdealBasis,
    ParamMatrix,
    Poly,
    check_membership,
    make_cell,
    parse_poly,
    psi,
    sample,
)
from grobcell.poly import drl_key, mono_mul

from oracles import enumerate_lex_segment_cells

# Three reference cells used throughout.
M_EX1 = (0, 5, 7, 11)
M_EX2 = (0, 3, 4, 5, 10, 11, 12, 14, 15, 16, 19, 20, 21)
M_EX3 = (0, 2, 3, 5)

# The four input generators of the worked inverse-map example, over QQ.
EX3_GENS = (
    "x^3-x^2*y-2*x*y^2+2*y^3-2*x^2+x*y+y^2-x+2*y-2",
    "x^2*y^2-2*y^4-x^3+x^2*y-2*y^3+x^2-3*x*y+4*y^2+4*x-y",
    "x*y^3-y^4-2*x^2*y+6*x*y^2-5*y^3+x^2-x*y+2*y^2-3*x+4*y-2",
    "y^5+x^2*y^2-2*x*y^3+2*y^4+3*x*y^2+2*y^3-x^2-2*x*y-y^2-x-11*y+6",
)

# Its canonical matrix and the regenerated generators.
EX3_A_ROWS = (
    ("2*y-2", "-2*y+1", "0"),
    ("-2", "2", "4"),
    ("y-2", "3", "4"),
    ("-1", "1", "y+1"),
)
EX3_REGENERATED = (
    "x^3-x^2*y-2*x*y^2+2*y^3-2*x^2+x*y+y^2-x+2*y-2",
    "x^2*y^2-x*y^3-y^4+2*x^2*y-8*x*y^2+5*y^3-2*x^2-x*y+3*y^2+6*x-3*y",
    "x*y^3-y^4-2*x^2*y+6*x*y^2-5*y^3+x^2-x*y+2*y^2-3*x+4*y-2",
    "y^5-2*x*y^3+4*y^4+5*x*y^2+2*y^3-6*y^2-4*x-12*y+8",
)

# The raw Hilbert-Burch matrix extracted from the example's own basis
# (after the f_1 -> f_1 + f_0 normalization), before any reduction move.
EX3_RAW_MATRIX = (
    ("y^2-1", "-2*y+1", "y^2-1"),
    ("-x+y", "y+1", "3"),
    ("1", "-x-y+1", "y^2+1"),
    ("0", "1", "-x+y+1"),
)
EX3_AFTER_RED_3_2 = (
    ("y^2+2*y-2", "-2*y+1", "y^2-1"),
    ("-x-1", "y+1", "3"),
    ("y-1", "-x+2", "y^2+4"),
    ("-1", "1", "-x+y+1"),
)
EX3_AFTER_RED_1_3 = (
    ("y^2+2*y-2", "-2*y+1", "-2*y+1"),
    ("-x-2", "y+2", "y+6"),
    ("y-1", "-x+2", "y^2-y+5"),
    ("-1", "1", "-x+y+2"),
)
EX3_AFTER_RED_2_3 = (
    ("y^2+2*y-2", "-2*y+1", "0"),
    ("-x-2", "y+2", "4"),
    ("y-2", "-x+3", "y^2+4"),
    ("-1", "1", "-x+y+1"),
)


@pytest.fixture
def ex1_cell():
    return make_cell(M_EX1)


@pytest.fixture
def ex2_cell():
    return make_cell(M_EX2)


@pytest.fixture
def ex3_cell():
    return make_cell(M_EX3)


@pytest.fixture
def ex3_gens():
    return [parse_poly(s, QQ, 2) for s in EX3_GENS]


def zero_matrix(cell, field):
    """The matrix with every entry 0: psi gives the staircase monomials."""
    z = Poly.zero(field, 1)
    return ParamMatrix(cell, field, tuple((z,) * cell.t for _ in range(cell.t + 1)))


def param_matrix_from_strings(cell, field, string_rows):
    """A checked matrix from rows of polynomial strings in y."""
    entries = [[parse_poly(s, field, 1) for s in row] for row in string_rows]
    return check_membership(cell, entries, field)


def random_samples(field, count, seed, max_colength=20, min_colength=2):
    """Deterministic stream of (cell, matrix) pairs across lex-segment cells."""
    cells = [
        c for c in enumerate_lex_segment_cells(max_colength)
        if c.colength() >= min_colength
    ]
    rng = random.Random(seed)
    out = []
    for k in range(count):
        cell = rng.choice(cells)
        out.append((cell, sample(cell, field, seed=rng.randrange(2**32))))
    return out


def with_fractions(A, rng):
    """A copy of a QQ matrix with every coefficient multiplied by a random
    positive rational, so each row mixes several denominators."""
    entries = [
        [
            Poly.from_terms(
                QQ,
                1,
                [
                    (m, c * Fraction(rng.randint(1, 9), rng.randint(2, 9)))
                    for m, c in e.terms.items()
                ],
            )
            for e in row
        ]
        for row in A.entries
    ]
    return check_membership(A.cell, entries, QQ)


def m_vectors(n):
    """Every cell of colength n, lex-segment or not, as its m-vector: each
    (0, m_1 <= ... <= m_t) with m_1 > 0 and sum n, built without cell.py."""

    def tails(n, least):
        """The non-decreasing (m_1, ..., m_t) with m_1 >= least and sum n."""
        if n == 0:
            yield ()
        for first in range(least, n + 1):
            for rest in tails(n - first, first):
                yield (first, *rest)

    return [(0, *m) for m in tails(n, 1)]


def hilbert_scheme_series(top):
    """The coefficients of T^0..T^top in prod_(k>=1) 1/(1 - q^(k+1) T^k),
    each a Counter {exponent of q: coefficient}: at a prime power q, the
    T^n one counts the F_q-points of Hilb^n(A^2) (Ellingsrud and Stromme
    1987; Goettsche 1990)."""
    series = [Counter({0: 1})] + [Counter() for _ in range(top)]
    for k in range(1, top + 1):  # times 1/(1 - q^(k+1) T^k), in place
        for n in range(k, top + 1):
            for e, c in series[n - k].items():
                series[n][e + k + 1] += c
    return series


def admissible_matrices(cell, field):
    """Every admissible matrix of the cell over a prime field GF(q), in
    row-major slot order: each slot's coefficients run over 0..q-1 in
    every degree up to cell.bound, so there are q^param_count of them."""
    t, q = cell.t, field.characteristic
    slots = [
        [
            Poly(field, 1, {(k,): c for k, c in enumerate(cs) if c})
            for cs in itertools.product(range(q), repeat=max(cell.bound(i, j) + 1, 0))
        ]
        for i in range(1, t + 2)
        for j in range(1, t + 1)
    ]
    for entries in itertools.product(*slots):
        rows = tuple(entries[r : r + t] for r in range(0, len(entries), t))
        yield ParamMatrix(cell, field, rows)


@st.composite
def cells(draw, max_t=4):
    """Small cells, lex-segment or not: m_0 = 0 < m_1 <= ... <= m_t."""
    t = draw(st.integers(1, max_t))
    steps = [draw(st.integers(1, 3))] + [draw(st.integers(0, 3)) for _ in range(t - 1)]
    return make_cell(list(itertools.accumulate([0] + steps)))


@st.composite
def term_items(draw, field, nvars, max_size=8):
    """(monomial, coefficient) pairs with few distinct monomials and small
    coefficients, so repeats are common and sums cancel over every field."""
    mono = st.tuples(*[st.integers(0, 2)] * nvars)
    if field.characteristic:
        coeff = st.integers(-3, 3).map(field.coerce)
    else:
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return draw(st.lists(st.tuples(mono, coeff), max_size=max_size))


def perturbed_basis(cell, field, seed):
    """psi of a sampled matrix with f_i += c*mu*f_j, mu*lm(f_j) < lm(f_i):
    the ideal and every leading term stay, so the basis stays certified but
    is no psi output and its raw matrix needs reduction moves."""
    rng = random.Random(seed)
    fs = list(psi(sample(cell, field, seed)).polys)
    for _ in range(4):
        i, j = rng.randrange(len(fs)), rng.randrange(len(fs))
        lm_i, lm_j = fs[i].leading_monomial(), fs[j].leading_monomial()
        mus = [
            mu for mu in itertools.product(range(3), range(4))
            if drl_key(mono_mul(mu, lm_j)) < drl_key(lm_i)
        ]
        if mus:
            c = field.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
            fs[i] = fs[i] + fs[j].mul_term(rng.choice(mus), c)
    return IdealBasis(cell, tuple(fs))


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


def stale_basis_move(move):
    """A defective reduction move: it updates A as `move` does, but returns
    the basis it was given instead of the one it carried."""
    return lambda M, basis, i, j: (move(M, basis, i, j)[0], basis)


def wrong_lead_move(move):
    """A defective reduction move: it returns the carried basis with x^(t+1)
    added to f_0, so f_0 loses its leading term x^t."""

    def mutated(M, basis, i, j):
        M, basis = move(M, basis, i, j)
        f0 = basis.polys[0]
        bumped = f0 + Poly.monomial(f0.field, 2, (M.cell.t + 1, 0))
        return M, IdealBasis(basis.cell, (bumped,) + basis.polys[1:])

    return mutated


def stuck_move(M, basis, i, j):
    """A defective reduction move: it returns its input unchanged, so the
    slot it was called on stays over its bound and the moves never end."""
    return M, basis


def recipe(m):
    """The inverse-map input of the benchmark's `qq/` rungs, on the cell m,
    with seed 1 for both draws: A sampled over QQ and the generators
    L*U*psi(A).  Returns (A, generators)."""
    A = sample(make_cell(m), QQ, 1)
    return A, recombine(list(psi(A).polys), random.Random(1))


def evens_recipe(t):
    """The recipe on m = (0, 2, ..., 2t)."""
    return recipe(range(0, 2 * t + 1, 2))
