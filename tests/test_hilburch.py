import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grobcell import GF, QQ, make_cell, psi, sample
from grobcell.canonical import _strip_x_t_tails, extract_syzygies
from grobcell.errors import (
    BoundViolation,
    FieldMismatch,
    InternalReductionFailure,
    LeadingTermMismatch,
    MatrixTooLarge,
)
from grobcell.field import MAX_PRIME, is_prime
from grobcell.hilburch import (
    IdealBasis,
    ParamMatrix,
    _failing_column,
    _pack,
    _unpack,
    check_membership,
    param_matrix_from_json,
    param_matrix_to_json,
    verify_groebner_property,
)
from grobcell.cell import MAX_COLENGTH, param_count
from grobcell.poly import Poly, drl_key, parse_poly, variable

from conftest import (
    EX3_A_ROWS,
    EX3_REGENERATED,
    M_EX1,
    M_EX3,
    cells,
    param_matrix_from_strings,
    perturbed_basis,
    with_fractions,
    zero_matrix,
)
from oracles import (
    critical_divisions,
    enumerate_lex_segment_cells,
    hb_matrix,
    is_groebner,
    maximal_minors,
    permutation_determinant,
    plain_failing_column,
)


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


@pytest.mark.parametrize("m", [M_EX3, (0, 2, 2, 5), (0, 1, 4, 4, 9)])
def test_check_membership_error_contract(m):
    """Shape first, then each slot row-major: a slot that is no polynomial
    in y, or lives in another field, raises ValueError at once, even after
    a violation; otherwise every slot over its cell.bound is reported, as
    (i, j, degree, bound) in row-major order."""
    cell = make_cell(m)
    t, zero = cell.t, Poly.zero(QQ, 1)

    def y_to(d, field=QQ):
        return Poly.from_terms(field, 1, [((d,), 1)])

    rows = [[zero] * t for _ in range(t + 1)]
    for bad in (rows[:-1], rows + [[zero] * t], rows[:-1] + [[zero] * (t + 1)]):
        with pytest.raises(ValueError, match=rf"^expected a {t + 1} x {t} matrix of entries$"):
            check_membership(cell, bad, QQ)

    def one_slot(i, j, e):
        out = [list(r) for r in rows]
        out[i - 1][j - 1] = e
        return out

    for e in ("y", 3, None, parse_poly("x*y", QQ, 2), variable(QQ, 3, "y")):
        with pytest.raises(ValueError, match=rf"^entry \(2,{t}\) is not a polynomial in y$"):
            check_membership(cell, one_slot(2, t, e), QQ)
    with pytest.raises(ValueError, match=r"^entry \(1,1\) lives in GF\(7\), not QQ$"):
        check_membership(cell, one_slot(1, 1, y_to(1, GF(7))), QQ)
    with pytest.raises(ValueError, match=r"^entry \(1,1\) lives in QQ, not GF\(7\)$"):
        check_membership(cell, rows, GF(7))

    over = [[y_to(max(cell.bound(i, j) + 1, 0)) for j in range(1, t + 1)] for i in range(1, t + 2)]
    want = [
        (i, j, max(cell.bound(i, j) + 1, 0), cell.bound(i, j))
        for i in range(1, t + 2)
        for j in range(1, t + 1)
    ]
    with pytest.raises(BoundViolation) as exc:
        check_membership(cell, over, QQ)
    assert exc.value.violations == want
    assert str(exc.value) == "; ".join(
        f"slot ({i},{j}): degree {d} exceeds bound {b}" for i, j, d, b in want
    )
    at_bound = [[y_to(b) if b >= 0 else zero for _, _, _, b in want[r * t : (r + 1) * t]]
                for r in range(t + 1)]
    assert check_membership(cell, at_bound, QQ).entries == tuple(map(tuple, at_bound))

    over[t][t - 1] = "y"  # a type error in the last slot, after every violation
    with pytest.raises(ValueError, match=rf"^entry \({t + 1},{t}\) is not a polynomial in y$"):
        check_membership(cell, over, QQ)
    over[t][t - 1] = y_to(1)
    over[t][0] = y_to(1, GF(7))
    with pytest.raises(ValueError, match=rf"^entry \({t + 1},1\) lives in GF\(7\), not QQ$"):
        check_membership(cell, over, QQ)


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


def test_minor_expansion_column_cap():
    # the colength cap is checked where cells are made, so library callers
    # are capped as the CLI is: the widest cell at the cap is made and psi
    # expands it, and every cell one past the cap is refused
    n = MAX_COLENGTH
    assert psi(zero_matrix(make_cell([0] + [1] * n), QQ)).polys[0] == parse_poly(f"x^{n}", QQ, 2)
    for m in ([0] + [1] * (n + 1), [0, n + 1], [0, 1, n]):
        with pytest.raises(MatrixTooLarge, match=f"colength {n + 1} exceeds the cap of {n}"):
            make_cell(m)


def random_poly_matrix(rng, field, nvars, n, coeff):
    """An (n+1) x n matrix of two-term polynomials of degree <= 2 per
    variable; terms may coincide or cancel, so some entries are zero."""
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
        for _ in range(n + 1)
    ]


def test_laplace_minors_against_permutation_oracle():
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
                assert maximal_minors(rows) == [
                    permutation_determinant(rows[:r] + rows[r + 1 :]) for r in range(n + 1)
                ]


@settings(max_examples=40, deadline=None)
@given(
    cell=cells(),
    field=st.sampled_from([QQ, GF(101), GF(3), GF(2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_psi_equals_signed_leibniz_minors(cell, field, seed):
    # GF(2) and GF(3) have characteristic at most t on most cells: psi must
    # not divide by an integer there
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small characteristic
        A = sample(cell, field, seed)
    if field == QQ:
        A = with_fractions(A, random.Random(seed))
    rows = hb_matrix(A)
    t = cell.t
    for i, f in enumerate(psi(A).polys):
        minor = permutation_determinant(rows[:i] + rows[i + 1 :])
        assert f == (minor if (t - i) % 2 == 0 else -minor)


# Denominators for the fractional QQ matrices: one distinct prime per
# coefficient, so D, the lcm of A's denominators, is their product.
LARGE_PRIMES = list(itertools.islice(filter(is_prime, itertools.count(10**12)), 120))
# GF(p) for the largest p that fields accept, where p^2 is about 2^126.
TOP_PRIME = next(p for p in range(MAX_PRIME - 1, 0, -2) if is_prime(p))


def extreme_matrix(cell, field, kind, rng):
    """A matrix with every admissible coefficient drawn for `kind`: QQ
    coefficients all +-9, integers near +-10^30, or +-c/q with a distinct
    large prime q each; over GF(p) each residue p - 1 or uniform."""
    primes = iter(LARGE_PRIMES)
    draw = {
        "pm9": lambda: Fraction(rng.choice((-9, 9))),
        "1e30": lambda: Fraction(rng.choice((-1, 1)) * (10**30 + rng.randint(-99, 99))),
        "primes": lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), next(primes)),
        "gf": lambda: rng.choice((field.characteristic - 1, rng.randrange(field.characteristic))),
    }[kind]
    entries = []
    for i in range(1, cell.t + 2):
        row = []
        for j in range(1, cell.t + 1):
            terms = {(k,): draw() for k in range(cell.bound(i, j) + 1)}
            row.append(Poly(field, 1, {k: c for k, c in terms.items() if c}))
        entries.append(row)
    return check_membership(cell, entries, field)


@settings(max_examples=60, deadline=None)
@given(
    cell=cells(max_t=5),
    case=st.sampled_from(
        [(QQ, "pm9"), (QQ, "1e30"), (QQ, "primes")]
        + [(GF(p), "gf") for p in (2, 3, 10007, TOP_PRIME)]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_psi_at_the_width_bound(cell, case, seed):
    """psi's packing width holds where coefficients are largest: its f_i
    equal the signed Laplace minors of X + A."""
    field, kind = case
    A = extreme_matrix(cell, field, kind, random.Random(seed))
    minors = maximal_minors(hb_matrix(A))
    for i, f in enumerate(psi(A).polys):
        assert f == (minors[i] if (cell.t - i) % 2 == 0 else -minors[i])


def test_pack_unpack_round_trip():
    for w in (2, 3, 17, 64, 100):
        top = (1 << (w - 1)) - 1
        for a in (
            [],
            [0],
            [0, 0, 1],
            [1, 0, 0],
            [-1],
            [1, -1],
            [0, -top],
            [top, -top, top],
            [-top, top, -top, 0, -top],
            [top] * 7,
            [-top] * 7,
            [-(top + 1), top, 0, -(top + 1)],
        ):
            want = list(a)
            while want and not want[-1]:
                want.pop()
            assert _unpack(_pack(a, w), w) == want


def test_minor_sign_convention():
    # deleting the first row of the 4 x 3 worked-example matrix gives
    # -f'_0 because t = 3 is odd
    cell = make_cell(M_EX3)
    A = param_matrix_from_strings(cell, QQ, EX3_A_ROWS)
    rows = hb_matrix(A)
    f0 = psi(A).polys[0]
    assert maximal_minors(rows)[0] == -f0
    assert permutation_determinant(rows[1:]) == -f0


def test_verify_groebner_property():
    cell = make_cell(M_EX1)
    A = zero_matrix(cell, QQ)
    basis = psi(A)
    assert verify_groebner_property(basis, A)
    # perturb f_0 by a same-degree tail term the bounds would never allow
    fs = list(basis.polys)
    fs[0] = fs[0] + parse_poly("y^3", QQ, 2)
    assert not verify_groebner_property(IdealBasis(cell, tuple(fs)), A)
    # wrong leading term is a contract violation, not a False
    fs = list(basis.polys)
    fs[0] = parse_poly("y^12", QQ, 2)
    with pytest.raises(LeadingTermMismatch):
        verify_groebner_property(IdealBasis(cell, tuple(fs)), A)


def test_verify_groebner_property_raw_bounds_and_contract():
    cell = make_cell(M_EX3)
    A = param_matrix_from_strings(cell, QQ, EX3_A_ROWS)
    basis = psi(A)
    assert verify_groebner_property(basis, A)
    # a changed constant in slot (1,1) breaks column 1; slot (1,3) may
    # reach degree u(1,3) - 1 = 2, and the bounds are checked first
    rows = [list(r) for r in A.entries]
    rows[0][0] = rows[0][0] + parse_poly("1", QQ, 1)
    assert _failing_column(basis, ParamMatrix(cell, QQ, tuple(map(tuple, rows)))) == 1
    rows[0][2] = rows[0][2] + parse_poly("y^3", QQ, 1)
    changed = ParamMatrix(cell, QQ, tuple(map(tuple, rows)))
    assert not verify_groebner_property(basis, changed)
    assert _failing_column(basis, changed) == 3
    with pytest.raises(FieldMismatch):
        verify_groebner_property(basis, zero_matrix(cell, GF(7)))
    with pytest.raises(ValueError):
        verify_groebner_property(basis, zero_matrix(make_cell(M_EX1), QQ))


def test_verify_groebner_property_digits_wider_than_a_word():
    # over GF(2^61 - 1) a column's coefficients need more than 64 bits
    field = GF(2**61 - 1)
    cell = make_cell(M_EX1)
    A = sample(cell, field, 5)
    basis = psi(A)
    assert verify_groebner_property(basis, A)
    fs = list(basis.polys)
    fs[-1] = fs[-1] + Poly.monomial(field, 2, (0, 0))
    # row t+1 of X + A is zero but for its -x in column t: u(4, 1), u(4, 2) < 0
    assert _failing_column(IdealBasis(cell, tuple(fs)), A) == cell.t


@settings(max_examples=100, deadline=None)
@given(
    cell=cells(),
    field=st.sampled_from([QQ, GF(2), GF(3), GF(10007), GF(2**61 - 1)]),
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(["psi", "slot", "tail", "x^t tail", "past raw bound"]),
    data=st.data(),
)
def test_failing_column_agrees_with_the_plain_oracle(cell, field, seed, case, data):
    """_failing_column names the column plain_failing_column finds: on psi(A);
    with a constant added to one nonzero slot; with a monomial below the
    leading term added to one f_i, an x^t-divisible one in some f_i with
    i >= 1 included; and with one slot pushed one degree past its raw
    bound."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small characteristic
        A = sample(cell, field, seed)
    if field == QQ:
        A = with_fractions(A, random.Random(seed))
    fs, rows = list(psi(A).polys), [list(r) for r in A.entries]
    t = cell.t
    if case == "slot":
        slots = [(i, j) for i, row in enumerate(rows) for j, a in enumerate(row) if a]
        if slots:
            i, j = data.draw(st.sampled_from(slots))
            rows[i][j] = rows[i][j] + Poly.constant(field, 1, 1)
    elif case in ("tail", "x^t tail"):
        low = t if case == "x^t tail" else 0
        below = [
            (k, (a, b))
            for k, f in enumerate(fs)
            for a in range(low, t + 1)
            for b in range(sum(f.leading_monomial()) + 1)
            if drl_key((a, b)) < drl_key(f.leading_monomial())
        ]
        if below:
            k, mono = data.draw(st.sampled_from(below))
            fs[k] = fs[k] + Poly.monomial(field, 2, mono)
    elif case == "past raw bound":
        slots = [
            (i, j)
            for i in range(1, t + 2)
            for j in range(1, t + 1)
            if cell.raw_bound(i, j) >= -1
        ]
        i, j = data.draw(st.sampled_from(slots))
        y = Poly.monomial(field, 1, (cell.raw_bound(i, j) + 1,))
        rows[i - 1][j - 1] = rows[i - 1][j - 1] + y
    basis = IdealBasis(cell, tuple(fs))
    A = ParamMatrix(cell, field, tuple(map(tuple, rows)))
    assert _failing_column(basis, A) == plain_failing_column(basis, A)
    if case == "psi":
        assert _failing_column(basis, A) == 0


def _divisions_certify(basis):
    """The division certificate: every critical S-polynomial of the
    stripped basis reduces to zero."""
    try:
        extract_syzygies(_strip_x_t_tails(basis))
    except InternalReductionFailure:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    cell=cells(),
    field=st.sampled_from([QQ, GF(10007), GF(3), GF(2)]),
    seed=st.integers(0, 2**32 - 1),
    mono=st.sampled_from([(1, 0), (0, 1), (0, 0)]),
)
def test_syzygy_certificate_agrees_with_critical_divisions(cell, field, seed, mono):
    """On psi(A) both certificates hold.  Adding x, y or 1 to the tail of
    an f_i breaks a column of X + A, and the divisions agree with the
    S-pair oracle.  Changing one nonzero slot of A breaks its column.  The
    raw matrix read off a stripped, perturbed Groebner basis certifies it,
    with entries up to their raw bounds."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small characteristic
        A = sample(cell, field, seed)
        raw_basis = _strip_x_t_tails(perturbed_basis(cell, field, seed))
    rng = random.Random(seed)
    if field == QQ:
        A = with_fractions(A, rng)
    basis = psi(A)
    assert verify_groebner_property(basis, A) and _divisions_certify(basis)

    fs = list(basis.polys)
    below = [k for k, f in enumerate(fs) if drl_key(mono) < drl_key(f.leading_monomial())]
    if below:  # on m = (0, 1), x lies below neither leading monomial x, y
        i = rng.choice(below)
        fs[i] = fs[i] + Poly.monomial(field, 2, mono)
        perturbed = IdealBasis(cell, tuple(fs))
        assert not verify_groebner_property(perturbed, A)
        assert _divisions_certify(perturbed) == is_groebner(fs)

    slots = [(r, c) for r, row in enumerate(A.entries) for c, a in enumerate(row) if a]
    if slots:
        r, c = rng.choice(slots)
        rows = [list(row) for row in A.entries]
        rows[r][c] = rows[r][c] + Poly.constant(field, 1, 1)
        changed = ParamMatrix(cell, field, tuple(map(tuple, rows)))
        assert not verify_groebner_property(basis, changed)

    assert verify_groebner_property(raw_basis, extract_syzygies(raw_basis))


@settings(max_examples=60, deadline=None)
@given(
    cell=cells(),
    field=st.sampled_from([QQ, GF(10007), GF(3), GF(2)]),
    seed=st.integers(0, 2**32 - 1),
    perturb=st.booleans(),
)
def test_critical_reductions_match_divide(cell, field, seed, perturb):
    """groebner.divide of the critical S-polynomials of psi(A) leaves no
    remainder, and its quotients are minus the columns of A, all in K[y]:
    extract_syzygies reads A back.  With x added to f_t, extract_syzygies
    fails exactly when some remainder of divide is nonzero."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small characteristic
        A = sample(cell, field, seed)
    if field == QQ:
        A = with_fractions(A, random.Random(seed))
    fs = list(psi(A).polys)
    perturb = perturb and drl_key((1, 0)) < drl_key(fs[-1].leading_monomial())
    if perturb:
        fs[-1] = fs[-1] + Poly.monomial(field, 2, (1, 0))
    basis = _strip_x_t_tails(IdealBasis(cell, tuple(fs)))
    want = critical_divisions(basis)
    if any(d.remainder for d in want):
        assert perturb
        with pytest.raises(InternalReductionFailure, match="does not reduce to zero"):
            extract_syzygies(basis)
        return
    M = extract_syzygies(basis)
    if not perturb:
        assert M.entries == A.entries
    for j, d in enumerate(want):
        for i, q in enumerate(d.quotients):
            assert all(a == 0 for a, _ in q.terms)
            assert M.entries[i][j] == -Poly.from_terms(
                field, 1, [((b,), c) for (_, b), c in q.terms.items()]
            )


def test_critical_reductions_nonzero_remainder():
    cell = make_cell(M_EX1)
    F = GF(10007)
    fs = list(psi(sample(cell, F, 3)).polys)
    fs[-1] = fs[-1] + parse_poly("x", F, 2)
    basis = _strip_x_t_tails(IdealBasis(cell, tuple(fs)))
    assert any(d.remainder for d in critical_divisions(basis))
    with pytest.raises(InternalReductionFailure, match="does not reduce to zero"):
        extract_syzygies(basis)


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
