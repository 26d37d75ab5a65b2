"""The inverse map: from generators of an ideal whose initial ideal is I0
to the unique admissible parameter matrix presenting it.

Two entry points share one back end.  `canonicalize` takes arbitrary
generators: it computes the reduced Groebner basis, infers the cell from
its initial ideal (checking it against a given one) and picks the elements
f_0..f_t with leading terms x^(t-i) y^(m_i).  `canonical_matrix` takes
such a basis directly (for example psi(A), which it certifies on the way):
it strips x^t from the tails of f_1..f_t, reads a raw parameter matrix A
off the reductions of the t critical S-polynomials, then shrinks oversized
entries with paired row/column reduction moves until every slot satisfies
the cell's degree bounds.

The working matrix holds the K[y] entries of A alone, in a ParamMatrix;
X stays implicit.  One scan per matrix state, _find_violation, checks
every entry against its raw bound and finds the next slot over its
admissible bound, so the matrix it finds none in is the admissible result.
A move is a row and a column operation on X + A whose x terms cancel, so
it is carried out as univariate updates of A.
"""

from __future__ import annotations

from itertools import accumulate

from .cell import MonomialCell, cell_from_minimal_generators
from .errors import (
    InternalError,
    InternalReductionFailure,
    MoveNotApplicable,
    NonTerminationGuard,
    WrongInitialIdeal,
)
from .groebner import GroebnerBasis, _PackedDivisors, buchberger, divide, initial_ideal
from .hilburch import IdealBasis, ParamMatrix, critical_reductions, grade_bound, psi
from .poly import Poly, drl_key


def _max_raw_bound(cell: MonomialCell) -> int:
    """The largest grade_bound over the t(t+1) slots (0 when t = 0), in
    O(t): u(i, j) = a_i + b_j with a_i = i - m_(i-1) and b_j = m_j - j, so
    column j's largest bound is b_j plus the larger of (the largest a_i
    with i <= j) - 1 and the largest a_i with i > j."""
    t, m = cell.t, cell.m
    a = [i - m[i - 1] for i in range(1, t + 2)]  # a[k] is a_(k+1)
    upto = list(accumulate(a, max))  # upto[k] = max(a[:k+1])
    after = list(accumulate(reversed(a), max))[::-1]  # after[k] = max(a[k:])
    return max(
        (m[j] - j + max(upto[j - 1] - 1, after[j]) for j in range(1, t + 1)), default=0
    )


def _prepare_from_gb(gb: GroebnerBasis, cell: MonomialCell = None) -> IdealBasis:
    """f_0..f_t of the cell of in(gb), which must be `cell` when that is
    given: for each i the element whose leading term divides x^(t-i) y^(m_i)
    with the largest leading term, shifted up to it.  Such an element
    exists because x^(t-i) y^(m_i) lies in in(gb)."""
    given, cell = cell, cell_from_minimal_generators(initial_ideal(gb))
    if given is not None and given != cell:
        raise WrongInitialIdeal(f"initial ideal is the one of {cell}, expected {given}")
    t, field = cell.t, gb.field
    fs = []
    for i in range(t + 1):
        target = (t - i, cell.m[i])
        best = None
        for g in gb.elements:
            lm = g.leading_monomial()
            if lm[0] <= target[0] and lm[1] <= target[1]:
                if best is None or drl_key(lm) > drl_key(best.leading_monomial()):
                    best = g
        lm = best.leading_monomial()
        shift = (target[0] - lm[0], target[1] - lm[1])
        fs.append(best.mul_term(shift, field.one) if any(shift) else best)
    return IdealBasis(cell, tuple(fs))


def _strip_x_t_tails(basis: IdealBasis) -> IdealBasis:
    """Strip x^t-divisible monomials from the tails of f_1..f_t: each f_i
    that has one becomes its remainder by f_0, whose leading term is x^t.
    The leading term of f_i has x-degree t - i < t, so it stays."""
    t = basis.cell.t
    f0 = basis.polys[0]
    fs = [f0] + [
        divide(f, [f0]).remainder if any(m[0] >= t for m in f.terms) else f
        for f in basis.polys[1:]
    ]
    return IdealBasis(basis.cell, tuple(fs))


def extract_syzygies(basis: IdealBasis) -> ParamMatrix:
    """The raw matrix A: column i is minus the quotients of the reduction of
    the i-th critical S-polynomial y^(d_i) f_(i-1) - x f_i, so the columns
    of X + A are syzygies of f_0..f_t.  The quotients land in K[y] because
    no support monomial of the S-polynomial is divisible by x^(t+1).

    Each entry is built once, negated; its leading monomial is the y
    exponent of the quotient's largest packed monomial.  The raw bounds
    are checked by _find_violation, on this matrix and after every move."""
    cell = basis.cell
    field = basis.polys[0].field
    p = field.characteristic
    packed, reductions = critical_reductions(basis)
    # A packed monomial of K[x, y] has x = 0 exactly when its x field is 0.
    xmask, unpack = packed.packing.xmask, packed.packing.unpack
    cols = []
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
            terms = {(unpack(m)[1],): p - c if p else -c for m, c in q.items()}
            col.append(Poly(field, 1, terms, lm))
        cols.append(col)
    rows = tuple(tuple(c[r] for c in cols) for r in range(cell.t + 1))
    return ParamMatrix(cell, field, rows)


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
    return ParamMatrix(cell, field, tuple(tuple(r) for r in A))


def _scan_position(slot) -> tuple:
    """Where the fixed discipline reaches slot (i, j): grow the validated
    upper-left block; within each block check the last row right-to-left,
    then the last column top-to-bottom."""
    i, j = slot
    return (i - 1, 0, -j) if i > j else (j, 1, i)


def _find_violation(M: ParamMatrix):
    """The one bound scan of a working matrix: check every nonzero entry
    against its raw bound, row-major, and return the slot over its
    admissible bound that the fixed discipline reaches first, or None when
    the matrix is admissible.  A broken raw bound means a defect, not bad
    input; the first broken slot in row-major order is raised."""
    cell = M.cell
    over = []
    for i, row in enumerate(M.entries, 1):
        for j, a in enumerate(row, 1):
            if not a:
                continue
            deg = a.degree()
            bound = grade_bound(cell, i, j)
            if deg > bound:
                raise InternalError(f"raw bound broken at ({i},{j}): deg {deg} > {bound}")
            if deg > cell.bound(i, j):
                over.append((i, j))
    return min(over, key=_scan_position, default=None)


def canonicalize(gens, cell: MonomialCell = None) -> ParamMatrix:
    """Return the admissible parameter matrix A with I_t(X+A) = (gens).

    The cell is inferred from the computed initial ideal; a given cell
    must be that one.  The result is re-expanded through its minors, which
    are reduced by the reduced basis of the input before it is returned.
    """
    return _canonicalize(gens, cell)[0]


def _canonicalize(gens, cell: MonomialCell = None) -> tuple:
    """canonicalize(gens, cell) together with psi(A), the basis that the
    same-ideal check expanded, so a caller that prints it expands it once."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    gb = buchberger(gens)
    A = canonical_matrix(_prepare_from_gb(gb, cell))
    return A, _verify_same_ideal(A, gb)


def canonical_matrix(basis: IdealBasis) -> ParamMatrix:
    """Return the admissible parameter matrix A whose maximal minors
    generate the ideal of `basis`, a Groebner basis f_0..f_t with leading
    terms x^(t-i) y^(m_i), monic, such as psi(A).

    Raises InternalReductionFailure exactly when a critical S-polynomial
    does not reduce to zero, that is when the basis is not a Groebner basis,
    so on psi(A) this call is also the Groebner certificate.  The x^t strip
    keeps the ideal and every leading term, so the stripped basis is a
    Groebner basis exactly when the input is.
    """
    cell = basis.cell
    M = extract_syzygies(_strip_x_t_tails(basis))

    t = cell.t
    cap = 10 * (t + 1) * t * (max(_max_raw_bound(cell), 0) + 1)
    moves = 0
    while (slot := _find_violation(M)) is not None:
        if moves >= cap:
            raise NonTerminationGuard(
                f"exceeded {cap} reduction moves on {cell}; this is a defect"
            )
        M = reduction_move(M, *slot)
        moves += 1
    return M


def _verify_same_ideal(A: ParamMatrix, gb: GroebnerBasis) -> IdealBasis:
    """Check that psi(A) generates the ideal J of gb; return psi(A).

    gb is a Groebner basis of J with in(J) = I0, since I0 was inferred
    from it.  Let J' be the ideal of psi(A).  psi checks that the leading
    terms of psi(A) are the staircase, so I0 is contained in in(J').  Each
    f_i of psi(A) is divided by gb; zero remainders give J' in J, so in(J')
    lies in in(J) = I0.  So in(J') = in(J), and an ideal inside another
    with the same initial ideal is equal to it: J' = J.  The divisors are
    packed once, as wide as the largest degree among psi(A) and gb, and
    primitive, so over QQ each division is the remainder-only one in ints:
    only zero or not counts."""
    regenerated = psi(A)
    fs = regenerated.polys
    top = max(f.degree() for f in fs + gb.elements)
    packed = _PackedDivisors(fs[0], top)
    for g in gb.elements:
        packed.append(packed.primitive(packed.image(g)))
    if any(packed.divide(packed.primitive(packed.image(f))) for f in fs):
        raise InternalError("canonical matrix presents a different ideal")
    return regenerated
