import random

import pytest

from grobcell import GF, QQ, make_cell, psi, sample, zero_matrix
from grobcell.cell import enumerate_lex_segment_cells
from grobcell.errors import NotGroebner, NotHomogeneous, NotLexSegment
from grobcell.groebner import buchberger, divide, initial_ideal
from grobcell.hilburch import param_matrix_from_strings
from grobcell.poly import dehomogenize, homogenize, parse_poly
from grobcell.projective import (
    homogenize_matrix,
    ideal_dehomogenize,
    ideal_homogenize,
    psi_bar,
    z_regular,
)

from conftest import EX3_A_ROWS, with_fractions


def P3(s, field=QQ):
    return parse_poly(s, field, 3)


def test_homogenize_matrix_zero(ex1_cell):
    rows = homogenize_matrix(zero_matrix(ex1_cell, QQ))
    assert all(e.is_zero() for row in rows for e in row)


def test_homogenize_matrix_entries(ex3_cell):
    A = param_matrix_from_strings(ex3_cell, QQ, EX3_A_ROWS)
    rows = homogenize_matrix(A)
    # slot (1,1) holds 2y-2 with entry degree u = 2: z * (2y - 2z)
    assert rows[0][0] == P3("2*y*z-2*z^2")
    # slot (2,1) holds the constant -2 with u = 1: -2z
    assert rows[1][0] == P3("-2*z")
    # the whole matrix is homogeneous with the degree pattern U
    for i in range(1, ex3_cell.t + 2):
        for j in range(1, ex3_cell.t + 1):
            e = rows[i - 1][j - 1]
            if not e.is_zero():
                assert e.is_homogeneous()
                assert e.degree() == ex3_cell.u(i, j)


def test_hom_matrix_dehomogenizes_back(ex3_cell):
    A = param_matrix_from_strings(ex3_cell, QQ, EX3_A_ROWS)
    rows = homogenize_matrix(A)
    for i in range(1, ex3_cell.t + 2):
        for j in range(1, ex3_cell.t + 1):
            hom_entry = rows[i - 1][j - 1]
            if hom_entry.is_zero():
                assert A.entry(i, j).is_zero()
            else:
                assert dehomogenize(hom_entry) == A.entry(i, j).embed(2)


def test_psi_bar_zero_matrix(ex1_cell):
    FB = psi_bar(zero_matrix(ex1_cell, QQ))
    for i, F in enumerate(FB.polys):
        assert F == P3(f"x^{ex1_cell.t - i}*y^{ex1_cell.m[i]}")


def test_psi_bar_worked_example(ex3_cell):
    A = param_matrix_from_strings(ex3_cell, QQ, EX3_A_ROWS)
    FB = psi_bar(A, check_minors=True)
    assert str(FB.polys[0]) == (
        "x^3-x^2*y-2*x*y^2+2*y^3-2*x^2*z+x*y*z+y^2*z-x*z^2+2*y*z^2-2*z^3"
    )
    affine = psi(A)
    assert [dehomogenize(F) for F in FB.polys] == list(affine.polys)
    assert [F for F in FB.polys] == [homogenize(f) for f in affine.polys]


def test_psi_bar_requires_lex_segment():
    cell = make_cell([0, 2, 2, 5])
    with pytest.raises(NotLexSegment):
        psi_bar(zero_matrix(cell, QQ))


def check_psi_bar(A, check_minors):
    cell = A.cell
    FB = psi_bar(A, check_minors=check_minors)
    assert all(p.is_homogeneous() for p in FB.polys)
    assert z_regular(list(FB.polys))
    gb = buchberger(list(FB.polys))
    assert set(initial_ideal(gb)) == {
        (a, b, 0) for a, b in cell.minimal_generators()
    }
    assert [dehomogenize(p) for p in FB.polys] == list(psi(A).polys)


@pytest.mark.filterwarnings("ignore:characteristic of GF")
def test_psi_bar_properties_random():
    F = GF(10007)
    rng = random.Random(55)
    cells = enumerate_lex_segment_cells(16)
    for k in range(10):
        cell = rng.choice(cells)
        check_psi_bar(sample(cell, F, seed=6000 + k), check_minors=(k % 3 == 0))
    # the three-variable minors over QQ with non-integer coefficients and
    # over GF(3), where terms of the expansion cancel mod p
    cells = enumerate_lex_segment_cells(10)
    for k in range(8):
        cell = rng.choice(cells)
        if k % 2:
            A = with_fractions(sample(cell, QQ, seed=6050 + k), rng)
        else:
            A = sample(cell, GF(3), seed=6050 + k)
        check_psi_bar(A, check_minors=True)


def test_z_regular_counterexamples():
    assert not z_regular([P3("z")])
    assert not z_regular([P3("x"), P3("y*z")])
    assert z_regular([P3("x"), P3("y")])


def test_z_regular_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneous):
        z_regular([P3("x+1")])


def test_ideal_homogenize_monomials(ex1_cell):
    gens = [
        parse_poly(f"x^{ex1_cell.t - i}*y^{ex1_cell.m[i]}", QQ, 2)
        for i in range(ex1_cell.t + 1)
    ]
    assert ideal_homogenize(gens) == [g.embed(3) for g in gens]


def test_ideal_homogenize_rejects_non_basis():
    # x+y and x y^2 leave the S-polynomial y^3 unreduced
    with pytest.raises(NotGroebner):
        ideal_homogenize([parse_poly("x+y", QQ, 2), parse_poly("x*y^2", QQ, 2)])


def test_ideal_dehomogenize_round_trip(ex3_cell):
    A = param_matrix_from_strings(ex3_cell, QQ, EX3_A_ROWS)
    affine = list(psi(A).polys)
    lifted = ideal_homogenize(affine)
    assert ideal_dehomogenize(lifted) == affine


def test_ideal_dehomogenize_rejects():
    with pytest.raises(NotHomogeneous):
        ideal_dehomogenize([P3("x+1")])
    with pytest.raises(NotGroebner):
        ideal_dehomogenize([P3("x+y"), P3("x*y^2")])


def test_mutual_groebner_equality_of_lifted_ideals():
    # homogenized basis and the basis of the homogenized ideal agree as
    # reduced Groebner bases, both ways, on random samples
    F = GF(101)
    rng = random.Random(66)
    cells = enumerate_lex_segment_cells(12)
    for k in range(8):
        cell = rng.choice(cells)
        A = sample(cell, F, seed=6100 + k)
        Fs = list(psi_bar(A).polys)
        gb3 = buchberger(Fs)
        for g in gb3.elements:
            assert divide(g, Fs).remainder.is_zero()
        for g in Fs:
            assert divide(g, gb3.elements).remainder.is_zero()
