"""The inverse map: from generators of an ideal whose initial ideal is I0
to the unique admissible parameter matrix presenting it.

Two entry points share one back end.  `canonicalize` takes arbitrary
generators: it computes the reduced Groebner basis, checks or infers the
cell from its initial ideal and picks the elements f_0..f_t with leading
terms x^(t-i) y^(m_i).  `canonical_matrix` takes such a basis directly (for
example psi(A), once certified): it strips x^t from the tails of f_1..f_t,
reads a raw Hilbert-Burch matrix off the reductions of the t critical
S-polynomials, then shrinks oversized entries with paired row/column
reduction moves until every slot satisfies the cell's degree bounds.
"""

from __future__ import annotations

from .cell import MonomialCell, cell_from_minimal_generators
from .errors import (
    InternalError,
    InternalReductionFailure,
    MoveNotApplicable,
    NonTerminationGuard,
    WrongInitialIdeal,
)
from .groebner import GroebnerBasis, buchberger, divide, initial_ideal
from .hilburch import IdealBasis, ParamMatrix, check_membership, psi, verify_groebner_property
from .poly import Poly, drl_key, uni_divmod


def grade_bound(cell: MonomialCell, i: int, j: int) -> int:
    """Degree cap guaranteed for slot (i, j) of a raw syzygy matrix: one
    less than the entry degree above the diagonal, the entry degree below."""
    u = cell.u(i, j)
    return u - 1 if i <= j else u


class RawSyzygyMatrix:
    """A working Hilbert-Burch matrix X + A_raw whose columns are syzygies
    of the current basis; A_raw obeys the looser raw bounds, not yet the
    cell's."""

    def __init__(self, cell: MonomialCell, field, rows):
        self.cell = cell
        self.field = field
        self.rows = [list(r) for r in rows]

    def copy(self) -> "RawSyzygyMatrix":
        return RawSyzygyMatrix(self.cell, self.field, [list(r) for r in self.rows])

    def a_entry(self, i: int, j: int) -> Poly:
        """The parameter part of slot (i, j), 1-based, as a poly in y."""
        e = self.rows[i - 1][j - 1]
        if i == j:
            e = e - Poly.monomial(self.field, 2, (0, self.cell.d_of(j)))
        elif i == j + 1:
            e = e + Poly.monomial(self.field, 2, (1, 0))
        for mono in e.terms:
            if mono[0] != 0:
                raise InternalError(
                    f"slot ({i},{j}) of the working matrix is not univariate: {e}"
                )
        return Poly(self.field, 1, {(m[1],): c for m, c in e.terms.items()})

    def a_rows(self) -> list:
        t = self.cell.t
        return [
            [self.a_entry(i, j) for j in range(1, t + 1)] for i in range(1, t + 2)
        ]

    def validate(self):
        """Shape and raw-bound check; violations mean a defect, not input."""
        t = self.cell.t
        for i in range(1, t + 2):
            for j in range(1, t + 1):
                a = self.a_entry(i, j)
                if a.degree() > grade_bound(self.cell, i, j):
                    raise InternalError(
                        f"raw bound broken at ({i},{j}): deg {a.degree()} > "
                        f"{grade_bound(self.cell, i, j)}"
                    )


def prepare_basis(gens, cell: MonomialCell) -> IdealBasis:
    """Groebner-reduce arbitrary generators and normalize to f_0..f_t."""
    gb = buchberger(gens)
    _check_initial_ideal(gb, cell)
    return _strip_x_t_tails(_prepare_from_gb(gb, cell))


def _check_initial_ideal(gb: GroebnerBasis, cell: MonomialCell):
    got = set(initial_ideal(gb))
    want = set(cell.minimal_generators())
    if got != want:
        fmt = lambda ms: ", ".join(f"x^{a}*y^{b}" for a, b in sorted(ms, reverse=True))
        raise WrongInitialIdeal(
            f"initial ideal has minimal generators [{fmt(got)}], expected [{fmt(want)}]"
        )


def _prepare_from_gb(gb: GroebnerBasis, cell: MonomialCell) -> IdealBasis:
    t = cell.t
    field = gb.field
    fs = []
    for i in range(t + 1):
        target = (t - i, cell.m[i])
        best = None
        for g in gb.elements:
            lm = g.leading_monomial()
            if lm[0] <= target[0] and lm[1] <= target[1]:
                if best is None or drl_key(lm) > drl_key(best.leading_monomial()):
                    best = g
        if best is None:
            raise WrongInitialIdeal(
                f"no basis element with leading term dividing x^{target[0]}*y^{target[1]}"
            )
        lm = best.leading_monomial()
        fs.append(best.mul_term((target[0] - lm[0], target[1] - lm[1]), field.one))
    return IdealBasis(cell, tuple(fs))


def _strip_x_t_tails(basis: IdealBasis) -> IdealBasis:
    """Strip x^t-divisible monomials from the tails of f_1..f_t, killing the
    DRL-largest offender first so the process terminates."""
    t = basis.cell.t
    fs = list(basis.polys)
    f0 = fs[0]
    for i in range(1, t + 1):
        f = fs[i]
        while True:
            offenders = [m for m in f.terms if m[0] >= t]
            if not offenders:
                break
            worst = max(offenders, key=drl_key)
            c = f.terms[worst]
            f = f - f0.mul_term((worst[0] - t, worst[1]), c)
        fs[i] = f
    return IdealBasis(basis.cell, tuple(fs))


def extract_syzygies(basis: IdealBasis) -> RawSyzygyMatrix:
    """Column i encodes the reduction of y^(d_i) f_(i-1) - x f_i; the
    quotients land in K[y] because no support monomial of the S-polynomial
    is divisible by x^(t+1)."""
    cell = basis.cell
    t = cell.t
    fs = basis.polys
    field = fs[0].field
    a_raw = [[Poly.zero(field, 1) for _ in range(t)] for _ in range(t + 1)]
    for i in range(1, t + 1):
        s = fs[i - 1].mul_term((0, cell.d_of(i)), field.one) - fs[i].mul_term(
            (1, 0), field.one
        )
        if s.is_zero():
            continue
        res = divide(s, fs)
        if not res.remainder.is_zero():
            raise InternalReductionFailure(
                f"critical S-polynomial {i} does not reduce to zero"
            )
        for j, q in enumerate(res.quotients):
            if q.is_zero():
                continue
            if any(m[0] != 0 for m in q.terms):
                raise InternalReductionFailure(
                    f"syzygy quotient on f_{j} is not univariate: {q}"
                )
            a_raw[j][i - 1] = -Poly(field, 1, {(m[1],): c for m, c in q.terms.items()})

    rows = [[a_raw[r][c].embed(2) for c in range(t)] for r in range(t + 1)]
    for i in range(1, t + 1):
        rows[i - 1][i - 1] = rows[i - 1][i - 1] + Poly.monomial(field, 2, (0, cell.d_of(i)))
        rows[i][i - 1] = rows[i][i - 1] - Poly.monomial(field, 2, (1, 0))
    M = RawSyzygyMatrix(cell, field, rows)
    M.validate()
    return M


def reduction_move(M: RawSyzygyMatrix, i: int, j: int) -> RawSyzygyMatrix:
    """Divide the slot (i, j) by the governing diagonal pivot and apply the
    paired row/column operation that removes the spurious x multiple.

    Applicable only when the entry's degree reaches d_i (above the
    diagonal) or d_j (below); the maximal minors of the result generate
    the same ideal."""
    cell, field = M.cell, M.field
    t = cell.t
    if i == j or not (1 <= i <= t + 1 and 1 <= j <= t):
        raise MoveNotApplicable(f"no reduction move at slot ({i},{j})")
    piv = i if i < j else j
    a = M.a_entry(i, j)
    if a.degree() < cell.d_of(piv):
        raise MoveNotApplicable(
            f"slot ({i},{j}) has degree {a.degree()}, below the pivot degree "
            f"{cell.d_of(piv)}"
        )
    pivot = Poly.monomial(field, 1, (cell.d_of(piv),)) + M.a_entry(piv, piv)
    q, _ = uni_divmod(a, pivot)
    qb = q.embed(2)

    out = M.copy()
    rows = out.rows
    if i < j:
        for r in range(t + 1):
            rows[r][j - 1] = rows[r][j - 1] - qb * rows[r][i - 1]
        for c in range(t):
            rows[i][c] = rows[i][c] + qb * rows[j][c]
    else:
        for c in range(t):
            rows[i - 1][c] = rows[i - 1][c] - qb * rows[j - 1][c]
        if j >= 2:
            for r in range(t + 1):
                rows[r][j - 2] = rows[r][j - 2] + qb * rows[r][i - 2]
    out.validate()
    return out


def _find_violation(M: RawSyzygyMatrix):
    """Scan in the fixed discipline: grow the validated upper-left block;
    within each block check the last row right-to-left, then the last
    column top-to-bottom.  Returns the first offending (i, j) or None."""
    cell = M.cell
    t = cell.t

    def too_big(i, j):
        return M.a_entry(i, j).degree() > cell.bound(i, j)

    for s in range(1, t + 1):
        for j in range(s, 0, -1):
            if too_big(s + 1, j):
                return (s + 1, j)
        for i in range(1, s + 2):
            if too_big(i, s):
                return (i, s)
    return None


def canonicalize(gens, cell: MonomialCell = None, verify: bool = True) -> ParamMatrix:
    """Return the admissible parameter matrix A with I_t(X+A) = (gens).

    The cell, when omitted, is inferred from the computed initial ideal.
    With verify=True the result is re-expanded through its minors and both
    generating sets are reduced against each other.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    gb = buchberger(gens)
    if cell is None:
        cell = cell_from_minimal_generators(initial_ideal(gb))
    else:
        _check_initial_ideal(gb, cell)
    A = canonical_matrix(_prepare_from_gb(gb, cell))
    if verify:
        _verify_same_ideal(A, gb)
    return A


def canonical_matrix(basis: IdealBasis) -> ParamMatrix:
    """Return the admissible parameter matrix A whose maximal minors
    generate the ideal of `basis`, a Groebner basis f_0..f_t with leading
    terms x^(t-i) y^(m_i), monic, such as a certified psi(A).

    Raises InternalReductionFailure when a critical S-polynomial does not
    reduce to zero, that is when the basis is not a Groebner basis.
    """
    cell = basis.cell
    M = extract_syzygies(_strip_x_t_tails(basis))

    t = cell.t
    max_raw = max(
        (grade_bound(cell, i, j) for i in range(1, t + 2) for j in range(1, t + 1)),
        default=0,
    )
    cap = 10 * (t + 1) * t * (max(max_raw, 0) + 1)
    moves = 0
    while True:
        slot = _find_violation(M)
        if slot is None:
            break
        if moves >= cap:
            raise NonTerminationGuard(
                f"exceeded {cap} reduction moves on {cell}; this is a defect"
            )
        M = reduction_move(M, *slot)
        moves += 1
    return check_membership(cell, M.a_rows(), M.field)


def _verify_same_ideal(A: ParamMatrix, gb: GroebnerBasis):
    regenerated = psi(A)
    if not verify_groebner_property(regenerated):
        raise InternalError("regenerated basis lost the Groebner property")
    for g in gb.elements:
        if not divide(g, regenerated.polys).remainder.is_zero():
            raise InternalError("canonical matrix presents a different ideal")
    for f in regenerated.polys:
        if not divide(f, gb.elements).remainder.is_zero():
            raise InternalError("canonical matrix presents a different ideal")
