import itertools
import json
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grobcell import GF, QQ, ParamMatrix, Poly, canonicalize, make_cell, psi, sample
import grobcell.canonical as canonical_mod
from grobcell.canonical import (
    _canonicalize,
    _find_violation,
    _max_raw_bound,
    _prepare_from_gb,
    _strip_x_t_tails,
    canonical_matrix,
    extract_syzygies,
    grade_bound,
    reduction_move,
)
from grobcell.cli import run
from grobcell.errors import (
    DivisionByZero,
    FieldMismatch,
    InternalError,
    InternalReductionFailure,
    LeadingTermMismatch,
    MoveNotApplicable,
    WrongInitialIdeal,
)
from grobcell.groebner import buchberger, divide, initial_ideal
from grobcell.hilburch import (
    IdealBasis,
    param_matrix_from_json,
    param_matrix_to_json,
    verify_groebner_property,
)
from grobcell.poly import drl_key, format_poly, parse_poly

from conftest import (
    EX3_A_ROWS,
    EX3_AFTER_RED_1_3,
    EX3_AFTER_RED_2_3,
    EX3_AFTER_RED_3_2,
    EX3_GENS,
    EX3_RAW_MATRIX,
    M_EX1,
    cells,
    evens_recipe,
    param_matrix_from_strings,
    perturbed_basis,
    recombine,
    stale_basis_move,
    with_fractions,
    wrong_lead_move,
    zero_matrix,
)
from oracles import (
    critical_divisions,
    enumerate_lex_segment_cells,
    hb_matrix,
    maximal_minors,
)

DATA = Path(__file__).parent / "data"


def P(s):
    return parse_poly(s, QQ, 2)


def example_basis(cell):
    """The worked example's basis after its f_1 -> f_1 + f_0 cleanup."""
    f = [P(s) for s in EX3_GENS]
    return IdealBasis(cell, (f[0], f[1] + f[0], f[2], f[3]))


def matrix_strings(M):
    """X + A of a working matrix, entry by entry as strings."""
    return tuple(tuple(str(e) for e in row) for row in hb_matrix(M))


def signed_minors(M):
    t = M.cell.t
    minors = maximal_minors(hb_matrix(M))
    return [m if (t - i) % 2 == 0 else -m for i, m in enumerate(minors)]


def prepare_basis(gens, cell):
    """Groebner-reduce arbitrary generators and normalize them to f_0..f_t,
    the steps canonicalize takes before canonical_matrix extracts A; the
    cell of in(gb) must be `cell`."""
    return _strip_x_t_tails(_prepare_from_gb(buchberger(gens), cell))


def test_prepare_basis_worked_example(ex3_cell, ex3_gens):
    basis = prepare_basis(ex3_gens, ex3_cell)
    t = ex3_cell.t
    for i, f in enumerate(basis.polys):
        assert f.leading_monomial() == (t - i, ex3_cell.m[i])
        assert f.leading_coeff() == QQ.one
        if i >= 1:
            assert all(mono[0] < t for mono in f.terms)
    # the element with leading term x^2 y^2 is exactly f_1 + f_0
    assert basis.polys[1] == ex3_gens[1] + ex3_gens[0]


def test_prepare_basis_monomials_unchanged(ex1_cell):
    gens = [
        P(f"x^{ex1_cell.t - i}*y^{ex1_cell.m[i]}") for i in range(ex1_cell.t + 1)
    ]
    basis = prepare_basis(gens, ex1_cell)
    assert list(basis.polys) == gens


def test_prepare_basis_three_points():
    # vanishing ideal of (0,0), (0,1), (0,2): x and y(y-1)(y-2)
    gens = [P("x"), P("y") * P("y-1") * P("y-2")]
    cell = make_cell([0, 3])
    basis = prepare_basis(gens, cell)
    assert basis.polys[0] == P("x")
    assert basis.polys[1] == P("y^3-3*y^2+2*y")


def test_prepare_basis_wrong_cell(ex3_gens):
    with pytest.raises(WrongInitialIdeal):
        prepare_basis(ex3_gens, make_cell(M_EX1))


def test_extract_syzygies_worked_example(ex3_cell):
    M = extract_syzygies(example_basis(ex3_cell))
    assert matrix_strings(M) == EX3_RAW_MATRIX


def test_extract_syzygies_recovers_admissible_matrix(ex3_cell):
    A = param_matrix_from_strings(ex3_cell, QQ, EX3_A_ROWS)
    M = extract_syzygies(psi(A))
    assert M.entries == A.entries


def test_extract_syzygies_monomial_basis(ex1_cell):
    basis = psi(zero_matrix(ex1_cell, QQ))
    M = extract_syzygies(basis)
    assert all(a.is_zero() for row in M.entries for a in row)


def _near_1e30(A, rng):
    """A copy of a QQ matrix with every coefficient multiplied by a random
    integer of absolute value about 10^30 and random sign."""
    entries = [
        [
            Poly.from_terms(
                QQ, 1, [(m, c * rng.choice((-1, 1)) * (10**30 + rng.randrange(10**6)))
                        for m, c in e.terms.items()]
            )
            for e in row
        ]
        for row in A.entries
    ]
    return ParamMatrix(A.cell, QQ, tuple(map(tuple, entries)))


@settings(max_examples=120, deadline=None)
@given(
    cell=cells(),
    field=st.sampled_from([QQ, GF(2), GF(3), GF(10007), GF(2**61 - 1)]),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["psi", "fractions", "near 1e30", "perturbed", "x in f_t"]),
)
@example(cell=make_cell(M_EX1), field=GF(10007), seed=3, kind="x in f_t")
def test_extract_syzygies_matches_divide(cell, field, seed, kind):
    """On a stripped basis the raw matrix is minus the quotients of
    groebner.divide on the critical S-polynomials, all in K[y], and
    InternalReductionFailure is raised exactly when one of their
    remainders is nonzero.  The bases: psi(A) (over QQ also with fractional
    coefficients, or with coefficients near +-10^30), perturbed_basis, and
    psi(A) with x added to f_t, which is mostly no Groebner basis."""
    rng = random.Random(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small characteristic
        A = sample(cell, field, seed)
        if kind == "perturbed":
            fs = list(perturbed_basis(cell, field, seed).polys)
    if field == QQ and kind == "fractions":
        A = with_fractions(A, rng)
    if field == QQ and kind == "near 1e30":
        A = _near_1e30(A, rng)
    if kind != "perturbed":
        fs = list(psi(A).polys)
    if kind == "x in f_t" and drl_key((1, 0)) < drl_key(fs[-1].leading_monomial()):
        fs[-1] = fs[-1] + Poly.monomial(field, 2, (1, 0))
    basis = _strip_x_t_tails(IdealBasis(cell, tuple(fs)))
    want = critical_divisions(basis)
    if any(d.remainder for d in want):
        with pytest.raises(InternalReductionFailure, match="does not reduce to zero"):
            extract_syzygies(basis)
        return
    M = extract_syzygies(basis)
    for j, d in enumerate(want):
        for i, q in enumerate(d.quotients):
            assert all(a == 0 for a, _ in q.terms)
            assert M.entries[i][j] == -Poly.from_terms(
                field, 1, [((b,), c) for (_, b), c in q.terms.items()]
            )


def test_extract_syzygies_input_checks(ex3_cell):
    fs = list(psi(zero_matrix(ex3_cell, QQ)).polys)
    for bad, exc in (
        (Poly.zero(QQ, 2), DivisionByZero),
        (parse_poly("y^5", GF(7), 2), FieldMismatch),
        (P("2*y^5"), LeadingTermMismatch),
        (P("y^6"), LeadingTermMismatch),
    ):
        with pytest.raises(exc):
            extract_syzygies(IdealBasis(ex3_cell, tuple(fs[:-1] + [bad])))


def test_extract_syzygies_x_past_t_is_a_defect(ex3_gens, ex3_cell):
    # the example's f_1 has the tail term -x^3 = -x^t, which _strip_x_t_tails
    # removes; left in, x f_1 in S_1 has no digit, and that is a defect
    with pytest.raises(InternalError, match="f_1 has x-degree 3, not below t = 3") as exc:
        extract_syzygies(IdealBasis(ex3_cell, tuple(ex3_gens)))
    assert exc.type is InternalError


def test_extract_syzygies_widens_over_qq(monkeypatch):
    """On m = (0, 1, 1) with f_0 = x^2 + y^2, f_1 = x*y, f_2 = y + c, S_1 =
    y^3 and its reduction by y + c has quotient y^2 - c*y + c^2 and
    remainder -c^3.  For c = 10^6 the digits outgrow the first width
    before the remainder shows, so the column restarts on a second packing
    at twice the width, and then fails as divide does."""
    cell = make_cell((0, 1, 1))
    basis = IdealBasis(cell, (P("x^2+y^2"), P("x*y"), P("y+1000000")))
    assert critical_divisions(basis)[0].remainder == P("-1000000000000000000")
    widths = []
    kronecker = canonical_mod._kronecker

    def spy(items, s, n):
        widths.append(s)
        return kronecker(items, s, n)

    monkeypatch.setattr(canonical_mod, "_kronecker", spy)
    with pytest.raises(InternalReductionFailure, match="critical S-polynomial 1 does"):
        extract_syzygies(basis)
    s = widths[0]
    assert widths == [s] * 3 + [2 * s] * 3


def test_extract_syzygies_reports_first_broken_raw_bound(ex3_cell, monkeypatch):
    """canonical_matrix checks the raw bounds of the extracted matrix in its
    one bound scan and raises for the first broken slot in row-major order.
    Slots (1,2) and (2,1) of the example's raw matrix have degree 1; a
    column-by-column report would name (2,1), and the scan discipline of
    the moves would reach (2,1) first."""
    monkeypatch.setattr(canonical_mod, "grade_bound", lambda cell, i, j: 0 if i + j == 3 else 5)
    with pytest.raises(InternalError, match=r"^raw bound broken at \(1,2\): deg 1 > 0$"):
        canonical_matrix(example_basis(ex3_cell))


def test_max_raw_bound_is_the_full_scan():
    """The O(t) largest raw bound, which sizes the move cap, equals the
    largest grade_bound over all t(t+1) slots: on every lex-segment cell of
    colength at most 12, on the non-lex cell (0, 2, 2, 5) and on every cell
    the `cells` strategy can draw with t <= 4."""
    drawable = [
        make_cell(list(itertools.accumulate([0, first] + list(rest))))
        for t in range(1, 5)
        for first in (1, 2, 3)
        for rest in itertools.product(range(4), repeat=t - 1)
    ]
    for cell in enumerate_lex_segment_cells(12) + [make_cell([0, 2, 2, 5])] + drawable:
        t = cell.t
        full = max(grade_bound(cell, i, j) for i in range(1, t + 2) for j in range(1, t + 1))
        assert _max_raw_bound(cell) == full, cell.m


def test_reduction_move_worked_example_sequence(ex3_cell):
    basis = example_basis(ex3_cell)
    M = extract_syzygies(basis)
    M1, basis = reduction_move(M, basis, 3, 2)
    assert matrix_strings(M1) == EX3_AFTER_RED_3_2
    M2, basis = reduction_move(M1, basis, 1, 3)
    assert matrix_strings(M2) == EX3_AFTER_RED_1_3
    M3, basis = reduction_move(M2, basis, 2, 3)
    assert matrix_strings(M3) == EX3_AFTER_RED_2_3


def test_reduction_move_preserves_ideal(ex3_cell):
    # after each single move the signed minors still generate the ideal,
    # and they are the basis the move carried
    reference = buchberger([P(s) for s in EX3_GENS]).elements
    basis = example_basis(ex3_cell)
    M = extract_syzygies(basis)
    for step in ((3, 2), (1, 3), (2, 3)):
        M, basis = reduction_move(M, basis, *step)
        assert buchberger(signed_minors(M)).elements == reference
        assert list(basis.polys) == signed_minors(M)


def test_reduction_move_not_applicable(ex3_cell):
    A = param_matrix_from_strings(ex3_cell, QQ, EX3_A_ROWS)
    basis = psi(A)
    M = extract_syzygies(basis)
    with pytest.raises(MoveNotApplicable):
        reduction_move(M, basis, 3, 2)
    with pytest.raises(MoveNotApplicable):
        reduction_move(M, basis, 2, 2)


def test_grade_bounds_hold_along_move_path(ex3_cell):
    basis = example_basis(ex3_cell)
    M = extract_syzygies(basis)
    for step in ((3, 2), (1, 3), (2, 3)):
        # canonical_matrix checks these bounds on every entry its sweeps
        # pass, through _find_violation; here they are checked slot by slot
        M, basis = reduction_move(M, basis, *step)
        for i in range(1, ex3_cell.t + 2):
            for j in range(1, ex3_cell.t + 1):
                a = M.entry(i, j)
                assert a.degree() <= grade_bound(ex3_cell, i, j)


def test_canonicalize_worked_example(ex3_gens, ex3_cell):
    A = canonicalize(ex3_gens, ex3_cell)
    assert tuple(tuple(str(e) for e in row) for row in A.entries) == EX3_A_ROWS


def test_canonicalize_infers_cell(ex3_gens, ex3_cell):
    A = canonicalize(ex3_gens)
    assert A.cell == ex3_cell


def test_canonicalize_monomials(ex1_cell):
    gens = [
        P(f"x^{ex1_cell.t - i}*y^{ex1_cell.m[i]}") for i in range(ex1_cell.t + 1)
    ]
    A = canonicalize(gens, ex1_cell)
    assert all(e.is_zero() for row in A.entries for e in row)


def test_canonicalize_wrong_initial_ideal(ex3_gens):
    with pytest.raises(WrongInitialIdeal):
        canonicalize(ex3_gens, make_cell(M_EX1))


@pytest.mark.parametrize("mutate", [stale_basis_move, wrong_lead_move])
def test_canonicalize_catches_a_mutated_move(ex3_gens, ex3_cell, monkeypatch, mutate):
    # a move that updates A but not the basis it carries, or that breaks a
    # leading term of that basis: the certificate of the carried basis
    # fails, and either failure is the same defect
    monkeypatch.setattr(canonical_mod, "reduction_move", mutate(reduction_move))
    with pytest.raises(InternalError, match="^canonical matrix presents a different ideal$"):
        canonicalize(ex3_gens, ex3_cell)


@pytest.mark.filterwarnings("ignore:characteristic of GF")
@settings(max_examples=30, deadline=None)
@given(
    cell=cells(max_t=5),
    field=st.sampled_from([QQ, GF(10007), GF(3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_canonicalize_returns_psi_as_the_carried_basis(cell, field, seed):
    # the basis carried through the moves is psi(A) term for term, so the
    # CLI prints it in place of a second expansion of the minors
    A = sample(cell, field, seed)
    basis = psi(A)
    gens = recombine(list(basis.polys), random.Random(seed))
    assert _canonicalize(gens, cell) == (A, basis)


def test_canonicalize_divides_critical_pairs_once(ex3_gens, ex3_cell, monkeypatch):
    # the t critical reductions run on the prepared basis alone; the
    # carried basis is certified by the syzygies, without dividing
    calls = []
    real = canonical_mod.extract_syzygies

    def spy(basis):
        calls.append(basis)
        return real(basis)

    monkeypatch.setattr(canonical_mod, "extract_syzygies", spy)
    A = canonicalize(ex3_gens, ex3_cell)
    assert tuple(tuple(str(e) for e in row) for row in A.entries) == EX3_A_ROWS
    assert len(calls) == 1


def test_round_trip_random():
    F = GF(10007)
    rng = random.Random(77)
    cells = enumerate_lex_segment_cells(18)
    for k in range(25):
        cell = rng.choice(cells)
        A = sample(cell, F, seed=5000 + k)
        assert canonicalize(list(psi(A).polys), cell) == A


def test_non_lex_segment_idempotent_through_ideal():
    # uniqueness is not claimed off the lex-segment locus; only that the
    # canonical form presents the same ideal
    cell = make_cell([0, 2, 2, 5])
    A = sample(cell, GF(10007), seed=321)
    fs = list(psi(A).polys)
    A2 = canonicalize(fs, cell)  # checks mutual reduction itself
    fs2 = list(psi(A2).polys)
    gb1 = buchberger(fs)
    for g in fs2:
        assert divide(g, gb1.elements).remainder.is_zero()
    assert set(initial_ideal(gb1)) == set(cell.minimal_generators())


def test_canonicalize_point_ideal():
    # vanishing ideal of the point (1, 2); X+A = [[y-2], [-x+1]]
    A = canonicalize([P("x-1"), P("y-2")])
    assert A.cell == make_cell([0, 1])
    assert [[str(e) for e in row] for row in A.entries] == [["-2"], ["1"]]
    assert [str(f) for f in psi(A).polys] == ["x-1", "y-2"]


def test_canonicalize_rejects_non_artinian():
    with pytest.raises(WrongInitialIdeal):
        canonicalize([P("x")])  # no pure power of y in the initial ideal


def test_round_trip_larger_cells():
    F = GF(10007)
    for m, seed in (([0, 1, 2, 3, 4, 5, 6, 7], 5), ([0, 2, 4, 6, 8, 10], 6)):
        cell = make_cell(m)
        A = sample(cell, F, seed=seed)
        assert canonicalize(list(psi(A).polys), cell) == A


def test_canonicalize_points_on_a_line():
    # k simple points (i, 2i+1), i = 0..k-1: ideal (y-2x-1, x(x-1)...(x-k+1))
    for k in (2, 3, 5):
        prod = P("1")
        for i in range(k):
            prod = prod * P(f"x-{i}" if i else "x")
        gens = [P("y-2*x-1"), prod]
        A = canonicalize(gens)
        assert A.cell.m == (0, k)
        # the ideal is radical of colength k
        gb = buchberger(list(psi(A).polys))
        for g in gens:
            assert divide(g, gb.elements).remainder.is_zero()


def test_canonicalize_points_on_a_parabola():
    # k simple points (i, i^2): ideal (y - x^2, x(x-1)...(x-k+1))
    for k in (3, 4, 5):
        prod = P("1")
        for i in range(k):
            prod = prod * P(f"x-{i}" if i else "x")
        gens = [P("y-x^2"), prod]
        A = canonicalize(gens)
        assert A.cell.colength() == k
        gb = buchberger(list(psi(A).polys))
        for g in gens:
            assert divide(g, gb.elements).remainder.is_zero()
        reference = buchberger(gens)
        for g in psi(A).polys:
            assert divide(g, reference.elements).remainder.is_zero()


def test_canonicalize_messy_regenerating_sets():
    # scrambled generating sets of psi(A) ideals must land back on A
    F = GF(10007)
    rng = random.Random(2024)
    cells = enumerate_lex_segment_cells(18)
    for k in range(6):
        cell = rng.choice(cells)
        A = sample(cell, F, seed=8800 + k)
        fs = list(psi(A).polys)
        mixed = list(fs)
        for _ in range(4):
            i, j = rng.randrange(len(fs)), rng.randrange(len(fs))
            if i == j:
                continue
            mult = parse_poly(f"{rng.randrange(1, 10007)}*y+{rng.randrange(10007)}", F, 2)
            mixed[i] = mixed[i] + mult * mixed[j]
        assert canonicalize(mixed, cell) == A


def test_canonicalize_from_scrambled_generators(ex3_gens, ex3_cell):
    # arbitrary generating sets go through the Groebner step first
    scrambled = [
        ex3_gens[3] + ex3_gens[0],
        ex3_gens[1] - ex3_gens[2],
        ex3_gens[2],
        ex3_gens[0] + ex3_gens[1],
        ex3_gens[3],
    ]
    A = canonicalize(scrambled, ex3_cell)
    assert tuple(tuple(str(e) for e in row) for row in A.entries) == EX3_A_ROWS


@pytest.mark.parametrize("t", [8, 10])
def test_canonicalize_past_the_coefficient_growth_cliff(t):
    A, gens = evens_recipe(t)
    assert canonicalize(gens) == A


def test_evens10_data_is_the_recipe():
    """tests/data/evens10_qq.* and evens16_qq.* (the CI guards' inputs and
    expected matrices) are the t=10 and t=16 recipes, formatted as the CLI
    reads and writes them."""
    for t in (10, 16):
        A, gens = evens_recipe(t)
        text = "".join(format_poly(g) + "\n" for g in gens)
        assert (DATA / f"evens{t}_qq.txt").read_text() == text
        assert json.loads((DATA / f"evens{t}_qq.json").read_text()) == param_matrix_to_json(A)


def test_dense10_data_is_the_recipe(capsys):
    """tests/data/dense10_qq.txt, a CI guard's input, is two lines, each the
    sum over a + b <= 10 (a outer, b inner) of c*x^a*y^b with
    c = rng.randint(1, 9) from one random.Random(1); dense10_qq.json is its
    `canonicalize --json` stdout, byte for byte."""
    rng = random.Random(1)
    lines = [
        " + ".join(
            f"{rng.randint(1, 9)}" + (f"*x^{a}" if a else "") + (f"*y^{b}" if b else "")
            for a in range(11)
            for b in range(11 - a)
        )
        for _ in range(2)
    ]
    assert (DATA / "dense10_qq.txt").read_text() == "".join(line + "\n" for line in lines)
    assert run(["canonicalize", "--gens", str(DATA / "dense10_qq.txt"), "--json"]) == 0
    assert capsys.readouterr().out == (DATA / "dense10_qq.json").read_text()


def test_canonical_matrix_worked_example(ex3_gens, ex3_cell):
    # the example's generators already form a Groebner basis with the
    # staircase leading terms; only f_1 carries an x^t tail
    A, _ = canonical_matrix(IdealBasis(ex3_cell, tuple(ex3_gens)))
    assert tuple(tuple(str(e) for e in row) for row in A.entries) == EX3_A_ROWS


def test_canonical_matrix_rejects_non_groebner_basis(ex3_gens, ex3_cell):
    fs = list(ex3_gens)
    fs[3] = fs[3] + P("x")  # same leading terms, different ideal
    with pytest.raises(InternalReductionFailure, match="does not reduce to zero"):
        canonical_matrix(IdealBasis(ex3_cell, tuple(fs)))


@settings(max_examples=30, deadline=None)
@given(
    cell=cells(max_t=5),
    field=st.sampled_from([QQ, GF(101)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_canonical_matrix_of_psi_equals_buchberger_route(cell, field, seed):
    A = sample(cell, field, seed)
    if field == QQ:
        A = with_fractions(A, random.Random(seed))
    basis = psi(A)
    # sample --trials relies on this: canonical_matrix(psi(A)) divides the
    # critical S-polynomials of psi(A) itself, so it is the certificate
    assert _strip_x_t_tails(basis).polys == basis.polys
    assert canonical_matrix(basis) == (A, basis)
    assert canonicalize(list(basis.polys), cell) == A


@pytest.mark.filterwarnings("ignore:characteristic of GF")
@settings(max_examples=30, deadline=None)
@given(
    cell=cells(max_t=5),
    field=st.sampled_from([QQ, GF(101), GF(3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_canonical_matrix_with_moves_equals_buchberger_route(cell, field, seed):
    basis = perturbed_basis(cell, field, seed)
    stripped = _strip_x_t_tails(basis)
    assert verify_groebner_property(stripped, extract_syzygies(stripped))
    # perturbed_basis keeps the ideal of psi(sample(...)), so the moves must
    # end at the sampled matrix, whatever their order
    A = sample(cell, field, seed)
    result = canonical_matrix(basis)
    assert result == (A, psi(A))
    assert result == _canonicalize(list(basis.polys), cell)


def test_fractional_mex2_round_trip_takes_few_moves(monkeypatch):
    # the sweeps return psi(fractional M_EX2)'s matrix in 184 moves; a
    # rescan from the first slot after every move took 1,284
    calls = []

    def counted(M, basis, i, j):
        calls.append((i, j))
        return reduction_move(M, basis, i, j)

    A = param_matrix_from_json(json.loads((DATA / "mex2_fractions_qq.json").read_text()))
    monkeypatch.setattr(canonical_mod, "reduction_move", counted)
    assert canonicalize(list(psi(A).polys)) == A
    assert len(calls) <= 300


@pytest.mark.filterwarnings("ignore:characteristic of GF")
def test_recombined_gf3_input_canonicalizes_within_the_move_cap():
    """tests/data/recombined11_gf3.* (a CI guard's input and expected
    matrix) are L*U*psi(A0) and A0 for A0 = sample of the cell below over
    GF(3) with seed 637692 and recombine's rng random.Random(637692).  A
    rescan from the first slot after every move exceeded the move cap of
    9,240 on it; the sweeps take 138 moves."""
    cell, field, seed = make_cell([0, 1, 1, 3, 5, 5, 6, 7, 12, 13, 15, 16]), GF(3), 637692
    A0 = sample(cell, field, seed)
    gens = recombine(list(psi(A0).polys), random.Random(seed))
    text = "".join(format_poly(g) + "\n" for g in gens)
    assert (DATA / "recombined11_gf3.txt").read_text() == text
    assert json.loads((DATA / "recombined11_gf3.json").read_text()) == param_matrix_to_json(A0)
    assert canonicalize(gens) == A0


def test_reduction_moves_preserve_ideal_random():
    # every move on the canonicalization path of seeded perturbed bases
    # keeps the ideal of the signed maximal minors of X + A, the basis the
    # moves carry is those minors (the Laplace oracle) after every move,
    # and the loop reaches all four branches of the univariate update:
    # above the diagonal with j < t and j = t, below it with j = 1 and j >= 2
    field = GF(101)
    rng = random.Random(4)
    branches = set()
    for _ in range(40):
        t = rng.randint(2, 5)
        steps = [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(t - 1)]
        cell = make_cell(list(itertools.accumulate([0] + steps)))
        basis = perturbed_basis(cell, field, rng.randrange(2**32))
        reference = buchberger(list(basis.polys)).elements
        basis = _strip_x_t_tails(basis)
        M = extract_syzygies(basis)
        assert buchberger(signed_minors(M)).elements == reference
        assert list(basis.polys) == signed_minors(M)
        slot = (1, 1)
        while (slot := _find_violation(M, slot)) is not None:
            i, j = slot
            branches.add((i < j, j == (t if i < j else 1)))
            M, basis = reduction_move(M, basis, i, j)
            assert buchberger(signed_minors(M)).elements == reference
            assert list(basis.polys) == signed_minors(M)
    assert branches == {(True, True), (True, False), (False, True), (False, False)}
