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
the cell's degree bounds.  Each critical S-polynomial has exactly one
representation sum c_i f_i with the c_i in K[y], because the leading
monomials of the c_i f_i have the distinct x exponents t - i; its column
of A is minus those c_i.  extract_syzygies reduces it as one int whose
digits are its terms in DRL order, a few big-int operations per quotient
term.  The moves carry f_0..f_t along, and
`canonicalize` certifies the carried basis by the syzygies X + A
(verify_groebner_property), which makes it psi(A) and the input ideal's.

The working matrix holds the K[y] entries of A alone, in a ParamMatrix;
X stays implicit.  The moves run in row-major sweeps, and the one scan,
_find_violation, checks each entry it passes against its raw bound.  A
move is a row and a column operation on X + A whose x terms cancel, so
it is carried out as univariate updates of A.
"""

from __future__ import annotations

import math
from contextlib import suppress
from fractions import Fraction

from .cell import MonomialCell, cell_from_minimal_generators
from .errors import (
    DivisionByZero,
    InternalError,
    InternalReductionFailure,
    LeadingTermMismatch,
    MoveNotApplicable,
    NonTerminationGuard,
    WrongInitialIdeal,
)
from .groebner import GroebnerBasis, buchberger, divide, initial_ideal
from .hilburch import (
    IdealBasis,
    ParamMatrix,
    _check_staircase,
    _int_coefficients,
    _kronecker,
    verify_groebner_property,
)
from .poly import Poly, drl_key, mono_div, mono_divides


def _prepare_from_gb(gb: GroebnerBasis, cell: MonomialCell = None) -> IdealBasis:
    """f_0..f_t of the cell of in(gb), which must be `cell` when that is
    given: for each i the element whose leading term divides x^(t-i) y^(m_i)
    with the largest leading term, shifted up to it.  Such an element
    exists because x^(t-i) y^(m_i) lies in in(gb)."""
    given, cell = cell, cell_from_minimal_generators(initial_ideal(gb))
    if given is not None and given != cell:
        raise WrongInitialIdeal(f"initial ideal is the one of {cell}, expected {given}")
    leads = {g.leading_monomial(): g for g in gb.elements}  # distinct: gb is reduced
    fs = []
    for target in zip(range(cell.t, -1, -1), cell.m):  # x^(t-i) y^(m_i)
        lm = max((m for m in leads if mono_divides(m, target)), key=drl_key)
        shift = mono_div(target, lm)
        fs.append(leads[lm].mul_term(shift, gb.field.one) if any(shift) else leads[lm])
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
    """The raw matrix A: column j is minus the quotients of the reduction of
    the critical S-polynomial S_j = y^(d_j) f_(j-1) - x f_j by f_0..f_t, so
    the columns of X + A are syzygies of f_0..f_t.  Raises
    InternalReductionFailure exactly when some S_j does not reduce to zero,
    DivisionByZero for a zero f_i, FieldMismatch for an f_i over another
    field, LeadingTermMismatch unless each f_i is monic with leading
    monomial x^(t-i) y^(m_i), and InternalError when some S_j has an x
    exponent past t, which _strip_x_t_tails rules out.  The raw bounds are
    checked by _find_violation, on every entry that the sweeps pass.

    The division is groebner.divide's, on one int per S_j.  A monomial
    x^a y^b with a <= t is divisible by the leading monomial x^(t-i)
    y^(m_i) of some f_i exactly when b >= m_(t-a), and f_(t-a) is then the
    leftmost such divisor, since m is non-decreasing: so every quotient
    term is c y^(b - m_(t-a)) on f_(t-a), in K[y], and the divisor is found
    in O(1).  These quotients are also the only ones: if c_0..c_t in K[y]
    are not all zero, the leading monomials x^(t-i) y^(m_i + deg c_i) of
    the nonzero c_i f_i have pairwise distinct x exponents, so the largest
    cannot cancel and sum c_i f_i != 0.  So S_j has one representation
    sum c_i f_i over K[y], and column j is minus its c_i, whatever the
    order of the steps.

    x^a y^b is the digit (a + b)(t + 1) + a of a base-2^w int with signed
    digits of absolute value below 2^(w-1).  Digit order is DRL order
    (degree first, then the larger x exponent); multiplying by y^e shifts
    by e(t + 1) digits, and by x by t + 2.  The top digit of the working
    int V sits at K = V.bit_length() // w and is V / 2^(wK) rounded, both
    read off the top of V, so a step costs a few big-int operations
    whatever the divisor's length: read the top digit, then subtract its
    quotient coefficient times the packed f_(t-a), shifted.  Each step
    lowers K, so with P the digit of the largest lcm of a critical pair a
    column takes fewer than P steps.  w is the fewest whole bytes that hold
    P F^2 + 2F and a sign bit, with F = p over GF(p) and over QQ the
    largest absolute coefficient of the packed f_i.

    * Over GF(p) f_i is packed as its residues in [0, p).  A step takes
      the residue c of the top digit d as the quotient coefficient and
      subtracts c f_i, shifted, and d - c, a multiple of p, from the top
      digit, which clears it; so a digit grows by less than p^2 per step,
      from below p.  A top digit that is nonzero but 0 mod p is no term:
      it is subtracted alone, which clears it and leaves the polynomial
      over GF(p) and every other digit as they were.  So every digit
      stays below P p^2 + p in absolute value.
    * Over QQ f_i is packed as F_i = D f_i, for the lcm D of the basis's
      denominators, and V holds D E times the working polynomial, for the
      lcm E of the quotient denominators so far; V is an int because that
      polynomial's denominators divide D E.  The top digit d gives the
      quotient coefficient d / (D E) = num/den; E grows to lcm(E, den) and
      V by the same factor, and then (E num/den) F_i, shifted, is
      subtracted.  A running bound on the digits starts at 2F and grows
      with each step by the factor on E, plus |E num/den| F; when it would
      reach 2^(w-1), w doubles and the column restarts.
    """
    cell, fs = basis.cell, basis.polys
    t, m = cell.t, cell.m
    field = fs[0].field
    p = field.characteristic
    for i, f in enumerate(fs):
        if f.is_zero():
            raise DivisionByZero(f"f_{i} is zero")
    _check_staircase(basis, field)
    for i, f in enumerate(fs[1:], 1):  # x f_i is a term of S_i
        xdeg = max(a for a, _ in f.terms)
        if xdeg >= t:
            raise InternalError(f"f_{i} has x-degree {xdeg}, not below t = {t}: not stripped")
    T = t + 1
    spots = [[(a + b) * T + a for a, b in f.terms] for f in fs]  # the digit of each term
    lead = [(t - i + m[i]) * T + t - i for i in range(T)]
    P = max((t + 1 - j + m[j]) * T + t + 1 - j for j in range(1, T))
    D, vals = _int_coefficients(fs, p)
    F = p or max(max(map(abs, v)) for v in vals)
    s = ((P * F * F + 2 * F).bit_length() + 8) // 8  # bytes per digit

    def pack() -> list:
        return [_kronecker(zip(k, v), s, n + 1) for k, v, n in zip(spots, vals, lead)]

    def column(j: int):
        """Minus the K[y] quotients of S_j, as {i: {exponent: coefficient}}
        over the f_i with a nonzero one, or None when the digits outgrow w
        (only over QQ)."""
        w = 8 * s
        V = (packed[j - 1] << w * T * cell.d_of(j)) - (packed[j] << w * (T + 1))
        quots = {}
        E, bound, limit = 1, 2 * F, 1 << (w - 1)
        while V:
            K = V.bit_length() // w
            digit = ((V >> (w * K - 1)) + 1) >> 1 if K else V
            if p:
                c = digit % p
                if not c:  # a multiple of p is no term: clear the digit
                    V -= digit << w * K
                    continue
            i = t - K % T
            shift = K - lead[i]
            if shift < 0:  # x^a y^b with b < m_(t-a): a nonzero remainder
                raise InternalReductionFailure(
                    f"critical S-polynomial {j} does not reduce to zero"
                )
            if p:
                V -= (c * packed[i] + ((digit - c) << w * lead[i])) << w * shift
                quots.setdefault(i, {})[shift // T] = p - c
                continue
            g = math.gcd(digit, D * E)
            num, den = digit // g, D * E // g
            mult = den // math.gcd(E, den)
            E *= mult
            q = num * (E // den)
            bound = bound * mult + abs(q) * F
            if bound >= limit:
                return None
            if mult != 1:
                V *= mult
            V -= (q * packed[i]) << w * shift
            quots.setdefault(i, {})[shift // T] = -num if den == 1 else Fraction(-num, den)
        return quots

    packed, cols, zero = pack(), [], Poly.zero(field, 1)
    for j in range(1, T):
        while (quots := column(j)) is None:
            s *= 2
            packed = pack()
        col = [zero] * T
        for i, q in quots.items():
            col[i] = Poly(field, 1, {(e,): c for e, c in q.items()}, (max(q),))
        cols.append(col)
    return ParamMatrix(cell, field, tuple(zip(*cols)))


def reduction_move(M: ParamMatrix, basis: IdealBasis, i: int, j: int) -> tuple:
    """Divide the slot (i, j) by the governing diagonal pivot y^(d) + a and
    apply the paired row/column operation on X + A that removes the
    spurious x multiple, written as updates of A alone; return the new
    matrix and the basis f_0..f_t carried along.

    Applicable only when the entry's degree reaches d_i (above the
    diagonal) or d_j (below).  Column operations keep the syzygies of the
    f_i, and the row operation R_k += q R_l (1-based rows) keeps them with
    f_(l-1) -= q f_(k-1), q lifted to K[x, y]."""
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
    lift = Poly(field, 2, {(0, e): c for (e,), c in q.terms.items()})

    def q_y(k):  # q * y^(d_k), the diagonal entry of X in column k times q
        return q.mul_term((cell.d_of(k),), field.one)

    # A[r][c] is slot (r+1, c+1).  The -x that each operation picks up from
    # the subdiagonal of X is cancelled by the other operation of the pair.
    A, fs = [list(r) for r in M.entries], list(basis.polys)
    if i < j:
        # column j -= q * column i, then row i+1 += q * row j+1
        for r in range(t + 1):
            A[r][j - 1] = A[r][j - 1] - q * A[r][i - 1]
        A[i - 1][j - 1] = A[i - 1][j - 1] - q_y(i)
        for c in range(t):
            A[i][c] = A[i][c] + q * A[j][c]
        if j < t:
            A[i][j] = A[i][j] + q_y(j + 1)
        fs[j] = fs[j] - lift * fs[i]
    else:
        # row i -= q * row j, then column j-1 += q * column i-1
        for c in range(t):
            A[i - 1][c] = A[i - 1][c] - q * A[j - 1][c]
        A[i - 1][j - 1] = A[i - 1][j - 1] - q_y(j)
        if j >= 2:
            for r in range(t + 1):
                A[r][j - 2] = A[r][j - 2] + q * A[r][i - 2]
            A[i - 2][j - 2] = A[i - 2][j - 2] + q_y(i - 1)
        fs[j - 1] = fs[j - 1] + lift * fs[i - 1]
    return ParamMatrix(cell, field, tuple(tuple(r) for r in A)), IdealBasis(cell, tuple(fs))


def _find_violation(M: ParamMatrix, start: tuple = (1, 1)):
    """The one bound scan: walk the slots row-major from `start`, wrapping
    around once; raise InternalError, a defect, at a nonzero entry over its
    raw bound, and return the first slot over its admissible bound, or None."""
    cell, rows = M.cell, M.entries
    i0, j0 = start
    for k in range(len(rows) + 1):  # row i0 twice: from j0 on, then before it
        i = (i0 - 1 + k) % len(rows) + 1
        row = rows[i - 1]
        for j in range(j0 if k == 0 else 1, j0 if k == len(rows) else len(row) + 1):
            a = row[j - 1]
            if not a:
                continue
            deg = a.degree()
            bound = cell.raw_bound(i, j)
            if deg > bound:
                raise InternalError(f"raw bound broken at ({i},{j}): deg {deg} > {bound}")
            if deg > cell.bound(i, j):
                return i, j
    return None


def canonicalize(gens, cell: MonomialCell = None) -> tuple:
    """Return (A, g): the admissible parameter matrix A with
    I_t(X+A) = (gens), and the basis g that the reduction moves carried,
    which the certificate makes psi(A) term for term.  The cell is inferred
    from the computed initial ideal; a given cell must be that one.  Let
    J = (gens), whose initial ideal I0 the cell was read from.
    1. Each move adds to one g_i a K[x, y]-multiple of another, so g
       stays in J.
    2. verify_groebner_property(g, A) makes g a Groebner basis with the
       staircase leading terms, so in((g)) = I0 = in(J); with 1, (g) = J.
    3. It also puts g in the left kernel of X + A over K(x, y), and the
       signed maximal minors D of X + A lie there too (column j set beside
       X + A makes a square matrix with a repeated column).  D_0 =
       det(x*I - B) is nonzero, so that kernel is the line of D:
       b g = a D for coprime a, b in K[x, y].  Then a divides every g_i,
       whose gcd is 1 as J has finite colength, so a is a constant; and
       g_0, D_0 both have degree t and leading coefficient 1 as
       polynomials in x over K[y], so b = a.
    So g = D = psi(A) and I_t(X + A) = J.  A failed certificate, a wrong
    leading term included, is a defect."""
    A, basis = canonical_matrix(_prepare_from_gb(buchberger(gens), cell))
    with suppress(LeadingTermMismatch):
        if verify_groebner_property(basis, A):
            return A, basis
    raise InternalError("canonical matrix presents a different ideal")


def canonical_matrix(basis: IdealBasis) -> tuple:
    """Return the admissible parameter matrix A whose maximal minors
    generate the ideal of `basis`, a Groebner basis f_0..f_t with leading
    terms x^(t-i) y^(m_i), monic, such as psi(A); and the basis the moves
    carried, whose syzygies the columns of X + A are.

    Raises InternalReductionFailure exactly when a critical S-polynomial
    does not reduce to zero, that is when the basis is not a Groebner basis,
    so on psi(A) this call is also the Groebner certificate; and
    LeadingTermMismatch when some f_i is not monic with that leading term.
    The x^t strip keeps the ideal and every leading term, so the stripped
    basis is a Groebner basis exactly when the input is, and it keeps every
    x exponent of a critical S-polynomial at most t, as extract_syzygies
    needs.  The raw matrix is minus the one K[y]-representation of each
    critical S-polynomial by the stripped basis (see extract_syzygies).

    The moves run in row-major sweeps, each scan from the slot just moved,
    until a whole pass finds no slot over its admissible bound.  The ideal
    has one admissible matrix, so the order sets only the number of moves.
    The move cap, 10 t(t+1) times one more than the largest raw bound, is
    a guard, not a proven bound: a rescan from (1, 1) after every move
    exceeded it on valid input.
    """
    cell, t = basis.cell, basis.cell.t
    basis = _strip_x_t_tails(basis)
    M = extract_syzygies(basis)
    least = cap = 10 * (t + 1) * t
    moves, slot = 0, (1, 1)
    while (slot := _find_violation(M, slot)) is not None:
        if moves >= cap:
            # The full cap scans all t(t+1) slots, so it is found only once
            # the moves reach `least`, which valid inputs stay far below.  It
            # is at least 2 * least, as slot (t+1, t) has raw bound 1, so the
            # guard fires at the same count as with the cap known up front.
            raw = (cell.raw_bound(i, j) for i in range(1, t + 2) for j in range(1, t + 1))
            cap = least * (1 + max(raw))
            if moves >= cap:
                raise NonTerminationGuard(
                    f"exceeded {cap} reduction moves on {cell}; this is a defect"
                )
        M, basis = reduction_move(M, basis, *slot)
        moves += 1
    return M, basis
