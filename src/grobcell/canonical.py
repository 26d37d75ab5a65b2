"""The inverse map: from generators of an ideal whose initial ideal is I0
to the unique admissible parameter matrix presenting it.

Two entry points share one back end.  `canonicalize` takes arbitrary
generators: it computes the reduced Groebner basis, checks or infers the
cell from its initial ideal and picks the elements f_0..f_t with leading
terms x^(t-i) y^(m_i).  `canonical_matrix` takes such a basis directly (for
example psi(A), which it certifies on the way): it strips x^t from the
tails of f_1..f_t, reads a raw parameter matrix A off the reductions of the
t critical S-polynomials, then shrinks oversized entries with paired
row/column reduction moves until every slot satisfies the cell's degree
bounds.

The working matrix holds the K[y] entries of A alone, in a ParamMatrix
that is admissible only once check_membership passes at the end; X stays
implicit.  A move is a row and a column operation on X + A whose x terms
cancel, so it is carried out as univariate updates of A.
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
from .hilburch import (
    IdealBasis,
    ParamMatrix,
    check_membership,
    check_minor_columns,
    critical_reductions,
    psi,
)
from .poly import Poly, drl_key


def grade_bound(cell: MonomialCell, i: int, j: int) -> int:
    """Degree cap guaranteed for slot (i, j) of a raw syzygy matrix: one
    less than the entry degree above the diagonal, the entry degree below."""
    u = cell.u(i, j)
    return u - 1 if i <= j else u


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


def extract_syzygies(basis: IdealBasis) -> ParamMatrix:
    """The raw matrix A: column i is minus the quotients of the reduction of
    the i-th critical S-polynomial y^(d_i) f_(i-1) - x f_i, so the columns
    of X + A are syzygies of f_0..f_t.  The quotients land in K[y] because
    no support monomial of the S-polynomial is divisible by x^(t+1).

    Each entry is built once, negated, and its degree, the y exponent of
    the quotient's largest packed monomial, is checked against the raw
    bound on the way; a broken bound is raised after every remainder has
    been seen to vanish, as _check_raw_bounds would raise it."""
    cell = basis.cell
    field = basis.polys[0].field
    p, coerce = field.characteristic, field.coerce
    packed, reductions = critical_reductions(basis)
    # A packed monomial of K[x, y] has x = 0 exactly when its x field is 0.
    xmask, unpack = packed.packing.xmask, packed.packing.unpack
    cols, broken = [], []
    for i, (quots, rem) in enumerate(reductions, 1):
        if rem:
            raise InternalReductionFailure(
                f"critical S-polynomial {i} does not reduce to zero"
            )
        col = []
        for j, q in enumerate(quots):
            if not q:
                col.append(Poly.zero(field, 1))
                continue
            if any(m & xmask for m in q):
                raise InternalError(
                    f"syzygy quotient on f_{j} is not univariate: {packed.poly(q)}"
                )
            lm = (unpack(max(q))[1],)
            if lm[0] > grade_bound(cell, j + 1, i):
                broken.append((j + 1, i, lm[0]))
            terms = {(unpack(m)[1],): p - c if p else -coerce(c) for m, c in q.items()}
            col.append(Poly(field, 1, terms, lm))
        cols.append(col)
    if broken:
        i, j, deg = min(broken)
        raise InternalError(
            f"raw bound broken at ({i},{j}): deg {deg} > {grade_bound(cell, i, j)}"
        )
    rows = tuple(tuple(c[r] for c in cols) for r in range(cell.t + 1))
    return ParamMatrix(cell, field, rows)


def _check_raw_bounds(M: ParamMatrix):
    """Raw-bound check of the working matrix; a violation means a defect,
    not bad input."""
    cell = M.cell
    for i in range(1, cell.t + 2):
        for j in range(1, cell.t + 1):
            deg, bound = M.entry(i, j).degree(), grade_bound(cell, i, j)
            if deg > bound:
                raise InternalError(f"raw bound broken at ({i},{j}): deg {deg} > {bound}")


def reduction_move(M: ParamMatrix, i: int, j: int) -> ParamMatrix:
    """Divide the slot (i, j) by the governing diagonal pivot y^(d) + a and
    apply the paired row/column operation on X + A that removes the
    spurious x multiple, written as updates of A alone.

    Applicable only when the entry's degree reaches d_i (above the
    diagonal) or d_j (below); the maximal minors of the result generate
    the same ideal."""
    cell, field = M.cell, M.field
    t = cell.t
    if i == j or not (1 <= i <= t + 1 and 1 <= j <= t):
        raise MoveNotApplicable(f"no reduction move at slot ({i},{j})")
    piv = min(i, j)
    a = M.entry(i, j)
    if a.degree() < cell.d_of(piv):
        raise MoveNotApplicable(
            f"slot ({i},{j}) has degree {a.degree()}, below the pivot degree "
            f"{cell.d_of(piv)}"
        )
    pivot = Poly.monomial(field, 1, (cell.d_of(piv),)) + M.entry(piv, piv)
    q = divide(a, [pivot]).quotients[0]

    def q_y(k):  # q * y^(d_k), the diagonal entry of X in column k times q
        return q.mul_term((cell.d_of(k),), field.one)

    # A[r][c] is slot (r+1, c+1).  The -x that each operation picks up from
    # the subdiagonal of X is cancelled by the other operation of the pair.
    A = [list(r) for r in M.entries]
    if i < j:
        # column j -= q * column i, then row i+1 += q * row j+1
        for r in range(t + 1):
            A[r][j - 1] = A[r][j - 1] - q * A[r][i - 1]
        A[i - 1][j - 1] = A[i - 1][j - 1] - q_y(i)
        for c in range(t):
            A[i][c] = A[i][c] + q * A[j][c]
        if j < t:
            A[i][j] = A[i][j] + q_y(j + 1)
    else:
        # row i -= q * row j, then column j-1 += q * column i-1
        for c in range(t):
            A[i - 1][c] = A[i - 1][c] - q * A[j - 1][c]
        A[i - 1][j - 1] = A[i - 1][j - 1] - q_y(j)
        if j >= 2:
            for r in range(t + 1):
                A[r][j - 2] = A[r][j - 2] + q * A[r][i - 2]
            A[i - 2][j - 2] = A[i - 2][j - 2] + q_y(i - 1)
    out = ParamMatrix(cell, field, tuple(tuple(r) for r in A))
    _check_raw_bounds(out)
    return out


def _find_violation(M: ParamMatrix):
    """Scan in the fixed discipline: grow the validated upper-left block;
    within each block check the last row right-to-left, then the last
    column top-to-bottom.  Returns the first offending (i, j) or None."""
    cell = M.cell
    t = cell.t

    def too_big(i, j):
        return M.entry(i, j).degree() > cell.bound(i, j)

    for s in range(1, t + 1):
        for j in range(s, 0, -1):
            if too_big(s + 1, j):
                return (s + 1, j)
        for i in range(1, s + 2):
            if too_big(i, s):
                return (i, s)
    return None


def canonicalize(gens, cell: MonomialCell = None) -> ParamMatrix:
    """Return the admissible parameter matrix A with I_t(X+A) = (gens).

    The cell, when omitted, is inferred from the computed initial ideal.
    The result is re-expanded through its minors, and the reduced basis of
    the input is reduced by them before it is returned.
    """
    return _canonicalize(gens, cell)[0]


def _canonicalize(gens, cell: MonomialCell = None) -> tuple:
    """canonicalize(gens, cell) together with psi(A), the basis that the
    same-ideal check expanded, so a caller that prints it expands it once."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    gb = buchberger(gens)
    if cell is None:
        cell = cell_from_minimal_generators(initial_ideal(gb))
    else:
        _check_initial_ideal(gb, cell)
    # The same-ideal check expands psi(A), which takes t columns; refuse a
    # cell too wide for that before the back end does t^2 work on it.
    check_minor_columns(cell.t)
    A = canonical_matrix(_prepare_from_gb(gb, cell))
    return A, _verify_same_ideal(A, gb)


def canonical_matrix(basis: IdealBasis) -> ParamMatrix:
    """Return the admissible parameter matrix A whose maximal minors
    generate the ideal of `basis`, a Groebner basis f_0..f_t with leading
    terms x^(t-i) y^(m_i), monic, such as psi(A).

    Raises InternalReductionFailure exactly when a critical S-polynomial
    does not reduce to zero, that is when the basis is not a Groebner basis,
    so on psi(A) this call is also the Groebner certificate.  That relies on
    the x^t strip changing nothing there: for i >= 1, f_i deletes row i+1 of
    X + A, so it can use at most t-1 of the subdiagonal -x entries, and no
    term of f_i has x-degree t.
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
    return check_membership(cell, M.entries, M.field)


def _verify_same_ideal(A: ParamMatrix, gb: GroebnerBasis) -> IdealBasis:
    """Check that psi(A) is a Groebner basis of the ideal of gb; return it.

    Dividing one way is enough.  Both are Groebner bases with initial ideal
    I0: psi(A) by its leading terms and critical reductions, checked here,
    gb by _check_initial_ideal or because I0 was inferred from it.  If gb
    reduces to zero by psi(A), the ideal J of gb lies in the ideal J' of
    psi(A); a g in J' outside J would leave a nonzero remainder by gb whose
    leading term lies in in(J') = I0 = in(J), which no remainder can: so
    J = J'.  Each element of gb has the leading term, so the degree, of
    some f_i, which the certificate's packing holds."""
    regenerated = psi(A)
    packed, reductions = critical_reductions(regenerated)
    if any(rem for _, rem in reductions):
        raise InternalError("regenerated basis lost the Groebner property")
    if any(packed.divide(packed.image(g)) for g in gb.elements):
        raise InternalError("canonical matrix presents a different ideal")
    return regenerated
