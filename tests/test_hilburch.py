import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grobcell import GF, QQ, make_cell, psi, sample, zero_matrix
from grobcell.errors import (
    BoundViolation,
    DivisionByZero,
    FieldMismatch,
    LeadingTermMismatch,
    MatrixTooLarge,
)
from grobcell.groebner import divide
from grobcell.hilburch import (
    MAX_MINOR_COLUMNS,
    IdealBasis,
    critical_reductions,
    determinant,
    hb_matrix,
    maximal_minors,
    param_matrix_from_json,
    param_matrix_from_strings,
    param_matrix_to_json,
    verify_groebner_property,
)
from grobcell.cell import param_count
from grobcell.poly import Poly, parse_poly

from conftest import EX3_A_ROWS, EX3_REGENERATED, M_EX1, M_EX3, cells, with_fractions
from oracles import enumerate_lex_segment_cells


def permutation_determinant(rows):
    """Independent oracle: Leibniz expansion over all permutations."""
    n = len(rows)
    field = rows[0][0].field
    nvars = rows[0][0].nvars
    acc = Poly.zero(field, nvars)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        prod = Poly.constant(field, nvars, field.one)
        for r in range(n):
            prod = prod * rows[r][perm[r]]
        acc = acc + prod if inversions % 2 == 0 else acc - prod
    return acc


def test_check_membership_accepts_worked_example():
    cell = make_cell(M_EX3)
    A = param_matrix_from_strings(cell, QQ, EX3_A_ROWS)
    assert A.entry(1, 1) == parse_poly("2*y-2", QQ, 1)


def test_check_membership_reports_violation():
    cell = make_cell(M_EX3)
    rows = [list(r) for r in EX3_A_ROWS]
    rows[2][1] = "-y+1"  # slot (3,2) has bound 0
    with pytest.raises(BoundViolation) as exc:
        param_matrix_from_strings(cell, QQ, rows)
    assert (3, 2, 1, 0) in exc.value.violations


def test_check_membership_zero_matrix():
    for m in ([0, 1], M_EX1, M_EX3, [0, 2, 2, 5]):
        cell = make_cell(m)
        A = zero_matrix(cell, QQ)
        assert all(e.is_zero() for row in A.entries for e in row)


def test_psi_on_zero_matrix_gives_staircase():
    cell = make_cell(M_EX1)
    basis = psi(zero_matrix(cell, QQ))
    for i, f in enumerate(basis.polys):
        assert f == parse_poly(f"x^{cell.t - i}*y^{cell.m[i]}", QQ, 2)


def test_psi_reproduces_printed_generators():
    cell = make_cell(M_EX3)
    A = param_matrix_from_strings(cell, QQ, EX3_A_ROWS)
    got = [str(f) for f in psi(A).polys]
    assert got == list(EX3_REGENERATED)


def test_psi_random_leading_terms_and_degrees():
    F = GF(10007)
    rng = random.Random(8)
    cells = enumerate_lex_segment_cells(16)
    for k in range(20):
        cell = rng.choice(cells)
        A = sample(cell, F, seed=900 + k)
        basis = psi(A)
        for i, f in enumerate(basis.polys):
            assert f.leading_monomial() == (cell.t - i, cell.m[i])
            assert f.leading_coeff() == F.one
            assert f.degree() == cell.t - i + cell.m[i]


def test_syzygy_identity():
    F = GF(10007)
    rng = random.Random(9)
    cells = enumerate_lex_segment_cells(14)
    for k in range(10):
        cell = rng.choice(cells)
        A = sample(cell, F, seed=700 + k)
        fs = psi(A).polys
        rows = hb_matrix(A)
        for c in range(cell.t):
            acc = Poly.zero(F, 2)
            for r in range(cell.t + 1):
                acc = acc + fs[r] * rows[r][c]
            assert acc.is_zero()


def test_determinant_trivial():
    one = Poly.constant(QQ, 2, 1)
    zero = Poly.zero(QQ, 2)
    assert determinant([[one, zero], [zero, one]]) == one
    rows = [
        [parse_poly("y^2", QQ, 2), zero],
        [parse_poly("-x", QQ, 2), parse_poly("y", QQ, 2)],
    ]
    assert determinant(rows) == parse_poly("y^3", QQ, 2)


def test_minor_expansion_column_cap():
    # the expansion recurses once per column: at the cap it still runs
    # under the test runner's deeper stack, one column more is refused
    one, zero = Poly.constant(QQ, 2, 1), Poly.zero(QQ, 2)
    n = MAX_MINOR_COLUMNS
    identity = [[one if r == c else zero for c in range(n)] for r in range(n)]
    assert determinant(identity) == one
    wide = [[zero] * (n + 1) for _ in range(n + 2)]
    with pytest.raises(MatrixTooLarge):
        determinant(wide[1:])
    with pytest.raises(MatrixTooLarge):
        maximal_minors(wide, QQ, 2)


def random_poly_matrix(rng, field, nvars, n, coeff):
    """An n x n matrix of two-term polynomials of degree <= 2 per variable;
    terms may coincide or cancel, so some entries are zero."""
    return [
        [
            Poly.from_terms(
                field,
                nvars,
                [
                    (tuple(rng.randint(0, 2) for _ in range(nvars)), coeff(rng))
                    for _ in range(2)
                ],
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def test_determinant_against_permutation_oracle():
    rng = random.Random(21)
    cases = [
        (QQ, 2, lambda r: QQ.coerce(r.randint(-3, 3))),
        # non-integer coefficients: every row has its own denominators
        (QQ, 2, lambda r: Fraction(r.randint(-6, 6), r.randint(1, 6))),
        (QQ, 3, lambda r: Fraction(r.randint(-6, 6), r.randint(1, 6))),
        # GF(3): products of nonzero terms often cancel to 0 mod p
        (GF(3), 2, lambda r: GF(3).coerce(r.randrange(3))),
        (GF(3), 3, lambda r: GF(3).coerce(r.randrange(3))),
        (GF(10007), 3, lambda r: GF(10007).coerce(r.randrange(10007))),
    ]
    for field, nvars, coeff in cases:
        for n in (2, 3, 4):
            for _ in range(10):
                rows = random_poly_matrix(rng, field, nvars, n, coeff)
                assert determinant(rows) == permutation_determinant(rows)
    rows = [
        [parse_poly("3/4*y-5/6", QQ, 2), parse_poly("1/2*x", QQ, 2)],
        [parse_poly("-x+7/3", QQ, 2), parse_poly("2/5*y^2", QQ, 2)],
    ]
    assert str(determinant(rows)) == "3/10*y^3+1/2*x^2-1/3*y^2-7/6*x"


def test_minor_input_checks():
    q = Poly.constant(QQ, 2, 1)
    g = Poly.constant(GF(7), 2, 1)
    q3 = Poly.constant(QQ, 3, 1)
    with pytest.raises(FieldMismatch):
        determinant([[q, q], [q, g]])
    with pytest.raises(FieldMismatch):
        maximal_minors([[q], [g]], QQ, 2)
    with pytest.raises(FieldMismatch):
        maximal_minors([[g], [g]], QQ, 2)
    with pytest.raises(FieldMismatch):
        determinant([[g, g], [g, Poly.constant(GF(5), 2, 1)]])
    with pytest.raises(ValueError):
        determinant([[q, q], [q, q3]])
    with pytest.raises(ValueError):
        maximal_minors([[q3], [q3]], QQ, 2)
    with pytest.raises(ValueError):
        determinant([[q, q], [q]])
    with pytest.raises(ValueError):
        determinant([[q, q, q], [q, q, q]])
    with pytest.raises(ValueError):
        determinant([])
    with pytest.raises(ValueError):
        maximal_minors([[q, q], [q, q]], QQ, 2)
    with pytest.raises(ValueError):
        maximal_minors([[q, q], [q, q], [q]], QQ, 2)
    with pytest.raises(TypeError):
        determinant([[q, q], [q, 1]])
    with pytest.raises(TypeError):
        determinant([[1, q], [q, q]])
    with pytest.raises(TypeError):
        maximal_minors([[q], ["y"]], QQ, 2)


@settings(max_examples=40, deadline=None)
@given(
    cell=cells(),
    field=st.sampled_from([QQ, GF(101)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_psi_equals_signed_leibniz_minors(cell, field, seed):
    A = sample(cell, field, seed)
    if field == QQ:
        A = with_fractions(A, random.Random(seed))
    rows = hb_matrix(A)
    t = cell.t
    for i, f in enumerate(psi(A).polys):
        minor = permutation_determinant(rows[:i] + rows[i + 1 :])
        assert f == (minor if (t - i) % 2 == 0 else -minor)


def test_minor_sign_convention():
    # deleting the first row of the 4 x 3 worked-example matrix gives
    # -f'_0 because t = 3 is odd
    cell = make_cell(M_EX3)
    A = param_matrix_from_strings(cell, QQ, EX3_A_ROWS)
    rows = hb_matrix(A)
    minors = maximal_minors(rows, QQ, 2)
    f0 = psi(A).polys[0]
    assert minors[0] == -f0
    assert determinant([row for row in rows][1:]) == -f0


def test_verify_groebner_property():
    cell = make_cell(M_EX1)
    A = zero_matrix(cell, QQ)
    basis = psi(A)
    assert verify_groebner_property(basis)
    # perturb f_0 by a same-degree tail term the bounds would never allow
    fs = list(basis.polys)
    fs[0] = fs[0] + parse_poly("y^3", QQ, 2)
    assert not verify_groebner_property(IdealBasis(cell, tuple(fs)))
    # wrong leading term is a contract violation, not a False
    fs = list(basis.polys)
    fs[0] = parse_poly("y^12", QQ, 2)
    with pytest.raises(LeadingTermMismatch):
        verify_groebner_property(IdealBasis(cell, tuple(fs)))


@settings(max_examples=60, deadline=None)
@given(
    cell=cells(),
    field=st.sampled_from([QQ, GF(10007), GF(3), GF(2)]),
    seed=st.integers(0, 2**32 - 1),
    perturb=st.booleans(),
)
def test_critical_reductions_match_divide(cell, field, seed, perturb):
    """The packed S-polynomials and their divisions equal groebner.divide
    of the S-polynomials built from Poly values, quotients and remainder;
    adding x to f_t makes remainders nonzero."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small characteristic
        A = sample(cell, field, seed)
    if field == QQ:
        A = with_fractions(A, random.Random(seed))
    fs = list(psi(A).polys)
    if perturb:
        fs[-1] = fs[-1] + parse_poly("x", field, 2)
    got = list(critical_reductions(IdealBasis(cell, tuple(fs))))
    assert len(got) == cell.t
    for i, res in enumerate(got, 1):
        s = fs[i - 1].mul_term((0, cell.d_of(i)), field.one) - fs[i].mul_term(
            (1, 0), field.one
        )
        want = divide(s, fs)
        assert res.quotients == want.quotients
        assert res.remainder == want.remainder


def test_critical_reductions_input_checks():
    cell = make_cell(M_EX3)
    fs = list(psi(zero_matrix(cell, QQ)).polys)
    for bad, exc in (
        (Poly.zero(QQ, 2), DivisionByZero),
        (parse_poly("y^5", GF(7), 2), FieldMismatch),
    ):
        basis = IdealBasis(cell, tuple(fs[:-1] + [bad]))
        with pytest.raises(exc):
            next(critical_reductions(basis))


def test_critical_reductions_nonzero_remainder():
    cell = make_cell(M_EX1)
    fs = list(psi(sample(cell, GF(10007), 3)).polys)
    fs[-1] = fs[-1] + parse_poly("x", GF(10007), 2)
    assert any(r.remainder for r in critical_reductions(IdealBasis(cell, tuple(fs))))


def test_sample_determinism_and_shape():
    cell = make_cell(M_EX1)
    F = GF(10007)
    A1 = sample(cell, F, seed=424242)
    A2 = sample(cell, F, seed=424242)
    assert A1 == A2
    assert A1 != sample(cell, F, seed=424243)
    # every entry respects its slot bound; the parameter budget is N = 30
    for i in range(1, cell.t + 2):
        for j in range(1, cell.t + 1):
            e = A1.entry(i, j)
            if not e.is_zero():
                assert e.degree() <= cell.bound(i, j)
    assert param_count(cell) == 30


def test_sample_point_cell_two_coefficients():
    cell = make_cell([0, 1])
    assert param_count(cell) == 2
    A = sample(cell, GF(5), seed=1)
    assert len(A.entries) == 2 and len(A.entries[0]) == 1


def test_sample_draw_discipline():
    # slots fill row-major, coefficients low degree first, one field draw
    # per admissible coefficient: N draws total
    cell = make_cell(M_EX1)
    F = GF(10007)
    A = sample(cell, F, seed=2718)
    rng = random.Random(2718)
    draws = 0
    for i in range(1, cell.t + 2):
        for j in range(1, cell.t + 1):
            b = cell.bound(i, j)
            if b < 0:
                assert A.entry(i, j).is_zero()
                continue
            expected = Poly.from_terms(
                F, 1, [((k,), F.coerce(rng.randrange(10007))) for k in range(b + 1)]
            )
            draws += b + 1
            assert A.entry(i, j) == expected
    assert draws == param_count(cell) == 30


def test_param_matrix_json_round_trip():
    cell = make_cell(M_EX3)
    A = param_matrix_from_strings(cell, QQ, EX3_A_ROWS)
    obj = param_matrix_to_json(A)
    assert obj["m"] == [0, 2, 3, 5]
    assert obj["index_base"] == 1
    assert obj["entries"][0] == ["2*y-2", "-2*y+1", "0"]
    assert param_matrix_from_json(obj) == A
