"""Shared golden data and helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from grobcell import QQ, Poly, check_membership, make_cell, parse_poly, sample

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


@st.composite
def cells(draw, max_t=4):
    """Small cells, lex-segment or not: m_0 = 0 < m_1 <= ... <= m_t."""
    t = draw(st.integers(1, max_t))
    steps = [draw(st.integers(1, 3))] + [draw(st.integers(0, 3)) for _ in range(t - 1)]
    return make_cell(list(itertools.accumulate([0] + steps)))
