import itertools
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grobcell import GF, QQ, char_ok, hilbert_function, make_cell, sample, zero_matrix
from grobcell.betti import (
    betti_numbers,
    block_matrix,
    index_sets,
    matrix_rank,
    resolution_degrees,
    strata_codim,
    strata_codim_total,
)
from grobcell.cell import lex_betti
from grobcell.errors import CharTooSmall, EmptyStratum, NotLexSegment
from grobcell.hilburch import param_matrix_from_strings
from grobcell.projective import psi_bar

from conftest import M_EX1, M_EX2, M_EX3
from oracles import enumerate_lex_segment_cells, minimalize_homogeneous


def ex1_matrix(a31):
    cell = make_cell(M_EX1)
    rows = [["0"] * 3 for _ in range(4)]
    rows[2][0] = a31
    return param_matrix_from_strings(cell, QQ, rows)


def test_resolution_degrees():
    rd = resolution_degrees(make_cell(M_EX1))
    assert rd.p == (3, 7, 8, 11)
    assert rd.q == (8, 9, 12)
    assert rd.q[0] == 8
    # every syzygy degree is one more than the generator it pairs with
    rd3 = resolution_degrees(make_cell(M_EX3))
    assert rd3.p == (3, 4, 4, 5)
    assert rd3.q == (5, 5, 6)


def test_index_sets():
    cell = make_cell(M_EX1)
    assert index_sets(cell, 8) == ((2,), (1,))
    assert index_sets(cell, 6) == ((), ())
    cell3 = make_cell(M_EX3)
    # both degree-4 generators, and no degree-4 syzygy column
    assert index_sets(cell3, 4) == ((1, 2), ())
    assert index_sets(cell3, 5) == ((3,), (1, 2))
    with pytest.raises(NotLexSegment):
        index_sets(make_cell([0, 2, 2, 5]), 4)


def test_block_matrix():
    cell = make_cell(M_EX1)
    A0 = zero_matrix(cell, QQ)
    assert block_matrix(A0, 8) == [[QQ.zero]]
    A = ex1_matrix("1")
    assert block_matrix(A, 8) == [[QQ.one]]
    assert block_matrix(A, 3) == [[]] and block_matrix(A, 6) == []


def test_block_slots_are_constant_coordinates():
    # every block slot must be a below-diagonal slot with degree cap 0,
    # and distinct degrees use disjoint slots
    for m in (M_EX1, M_EX2, M_EX3):
        cell = make_cell(m)
        rd = resolution_degrees(cell)
        seen = set()
        for j in sorted(set(rd.p) | set(rd.q)):
            w, v = index_sets(cell, j)
            for i in w:
                for c in v:
                    slot = (i + 1, c)
                    assert cell.bound(*slot) == 0
                    assert slot not in seen
                    seen.add(slot)


def test_matrix_rank():
    F = GF(7)
    rows = [[F.coerce(1), F.coerce(2)], [F.coerce(2), F.coerce(4)]]
    assert matrix_rank(rows, F) == 1
    assert matrix_rank([], F) == 0
    assert matrix_rank([[]], F) == 0
    assert matrix_rank([[QQ.coerce(3)]], QQ) == 1
    rows = [
        [QQ.coerce(1), QQ.coerce(2), QQ.coerce(3)],
        [QQ.coerce(2), QQ.coerce(4), QQ.coerce(6)],
        [QQ.coerce(0), QQ.coerce(1), QQ.coerce(1)],
    ]
    assert matrix_rank(rows, QQ) == 2


def test_betti_zero_matrix_is_baseline():
    cell = make_cell(M_EX1)
    table = betti_numbers(zero_matrix(cell, QQ))
    assert table.beta0 == table.baseline == lex_betti(cell)


def test_betti_targeted_cases():
    # a nonzero constant in the lone block slot cancels the degree-8
    # generator; a zero there keeps it no matter what else is generic
    table = betti_numbers(ex1_matrix("1"))
    assert table.beta0 == {3: 1, 7: 1, 11: 1}
    assert minimalize_homogeneous(list(psi_bar(ex1_matrix("1")).polys)) == table.beta0

    cell = make_cell(M_EX1)
    generic = sample(cell, QQ, seed=99)
    rows = [[str(e) for e in row] for row in generic.entries]
    rows[2][0] = "0"
    A = param_matrix_from_strings(cell, QQ, rows)
    table = betti_numbers(A)
    assert table.beta0.get(8) == 1
    assert minimalize_homogeneous(list(psi_bar(A).polys)) == table.beta0


def test_betti_semicontinuity_spot():
    # zeroing a block entry never lowers a graded Betti number
    generic = betti_numbers(ex1_matrix("1")).beta0
    special = betti_numbers(ex1_matrix("0")).beta0
    for j in set(generic) | set(special):
        assert special.get(j, 0) >= generic.get(j, 0)


def test_betti_char_guard():
    cell = make_cell(M_EX1)
    with pytest.raises(CharTooSmall):
        betti_numbers(zero_matrix(cell, GF(2)))
    with pytest.raises(NotLexSegment):
        betti_numbers(zero_matrix(make_cell([0, 2, 2, 5]), QQ))


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    seed=st.integers(0, 2**32 - 1),
)
def test_small_characteristic_guards(steps, p, seed):
    # sample warns and betti_numbers refuses exactly when char_ok fails;
    # otherwise the ranks over GF(p) behave as over QQ
    cell = make_cell(list(itertools.accumulate([0] + steps)))
    F = GF(p)
    ok = char_ok(F, hilbert_function(cell))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        A = sample(cell, F, seed)
    assert len(caught) == (0 if ok else 1)
    if not ok:
        for M in (A, zero_matrix(cell, F)):
            with pytest.raises(CharTooSmall):
                betti_numbers(M)
        return
    table = betti_numbers(A)
    # minimal generators outnumber minimal syzygies by one (Hilbert-Burch)
    assert sum(table.beta0.values()) == sum(table.beta1.values()) + 1
    assert betti_numbers(zero_matrix(cell, F)) == betti_numbers(zero_matrix(cell, QQ))


def test_betti_oracle_agreement_random():
    rng = random.Random(44)
    cells = enumerate_lex_segment_cells(14)
    for k in range(8):
        cell = rng.choice(cells)
        for field in (QQ, GF(101)):
            A = sample(cell, field, seed=7000 + k)
            table = betti_numbers(A)
            assert table.beta0 == minimalize_homogeneous(list(psi_bar(A).polys))
            # per-degree Euler characteristic vs the staircase baseline
            rd = resolution_degrees(cell)
            for j in set(rd.p) | set(rd.q):
                w, v = index_sets(cell, j)
                assert table.beta1.get(j, 0) - table.beta0.get(j, 0) == len(v) - len(w)


def test_strata_codim():
    cell = make_cell(M_EX1)
    assert strata_codim(cell, 8, 1) == 1
    assert strata_codim(cell, 8, 0) == 0
    with pytest.raises(EmptyStratum):
        strata_codim(cell, 8, 2)
    with pytest.raises(EmptyStratum):
        strata_codim(cell, 3, 0)  # the cubic generator can never vanish
    assert strata_codim(cell, 3, 1) == 0


def test_strata_codim_total_matches_products():
    rng = random.Random(49)
    cells = enumerate_lex_segment_cells(14)
    for k in range(8):
        cell = rng.choice(cells)
        A = sample(cell, QQ, seed=7400 + k)
        table = betti_numbers(A)
        if not table.beta0:
            continue
        total = strata_codim_total(cell, table.beta0)
        assert total == table.codim_total()
        assert total == sum(
            table.beta1.get(j, 0) * u for j, u in table.beta0.items()
        )
