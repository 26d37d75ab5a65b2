"""The forward parametrization: from an admissible parameter matrix A to
the ideal basis given by the signed maximal minors of X + A.

X is the (t+1) x t matrix with y^(d_i) on the diagonal and -x on the
subdiagonal; its signed minors are the staircase monomials x^(t-i)y^(m_i).
Adding an A whose entries respect the cell's degree bounds perturbs those
minors into a basis f_0..f_t with the same leading terms.  psi computes
them as a characteristic polynomial and an adjugate over K[y], so its cost
is polynomial in t.  Inside psi an element of K[y] is one int: its integer
coefficients c_e packed as sum_e c_e 2^(w*e) (Kronecker substitution
y -> 2^w), signed, with one width w per call that psi's docstring proves
wide enough.  A product in K[y] is then one int product and a sum one int
sum; coefficient lists are read back only from the results over QQ, and
over GF(p) also from each step, to reduce them mod p.

verify_groebner_property certifies that such a basis is a Groebner basis
without dividing: each column of X + A, within its raw degree bounds, is a
syzygy of f_0..f_t and so an lcm representation of one critical S-pair,
and each syzygy is checked as one identity on Kronecker-packed ints in
K[x, y].  The checks on f_0..f_t (_check_staircase), their int
coefficients (_int_coefficients) and the byte-wise packing (_kronecker)
also serve canonical.extract_syzygies, which reduces the critical
S-polynomials themselves on such ints, with the digits in DRL order.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import attrgetter, itemgetter

from .cell import MonomialCell, hilbert_function, make_cell
from .errors import BoundViolation, FieldMismatch, InternalError, LeadingTermMismatch
from .field import char_ok, field_from_json
from .poly import Poly, drl_key, format_poly, parse_poly

_terms, _x, _y = attrgetter("terms"), itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class ParamMatrix:
    """A (t+1) x t matrix of univariate polynomials in y.

    A value is admissible, the coordinates of one point of the cell, when
    every entry is within its cell.bound: check_membership checks that on
    input, and canonical_matrix returns its working matrix, kept here under
    the looser raw bounds while it is reduced, once a whole sweep of
    _find_violation finds no slot over its bound."""

    cell: MonomialCell
    field: object
    entries: tuple  # (t+1) x t nested tuples of Poly in K[y]

    def entry(self, i: int, j: int) -> Poly:
        """1-based access, rows i = 1..t+1, columns j = 1..t."""
        return self.entries[i - 1][j - 1]


@dataclass(frozen=True)
class IdealBasis:
    """Polynomials f_0..f_t with in(f_i) = x^(t-i) y^(m_i), monic; or, from
    psi_bar, their homogenizations F_0..F_t in K[x, y, z], whose leading
    monomials are (t-i, m_i, 0)."""

    cell: MonomialCell
    polys: tuple


def check_membership(cell: MonomialCell, entries, field) -> ParamMatrix:
    """Validate shapes and degree bounds; report every violating slot."""
    t = cell.t
    rows = [list(r) for r in entries]
    if len(rows) != t + 1 or any(len(r) != t for r in rows):
        raise ValueError(f"expected a {t + 1} x {t} matrix of entries")
    violations = []
    for r in range(t + 1):
        for c in range(t):
            e = rows[r][c]
            if not isinstance(e, Poly) or e.nvars != 1:
                raise ValueError(f"entry ({r + 1},{c + 1}) is not a polynomial in y")
            if e.field != field:
                raise ValueError(f"entry ({r + 1},{c + 1}) lives in {e.field}, not {field}")
            if e.is_zero():
                continue
            b = cell.bound(r + 1, c + 1)
            if e.degree() > b:
                violations.append((r + 1, c + 1, int(e.degree()), b))
    if violations:
        raise BoundViolation(violations)
    return ParamMatrix(cell, field, tuple(tuple(r) for r in rows))


def _ky(f: Poly, scale: int, p: int) -> list:
    """f in K[y] as a list of int coefficients, low degree first: its
    residues over GF(p), over QQ the ints scale * f for a scale that clears
    every denominator of f."""
    out = [0] * (f.degree() + 1) if f.terms else []
    for (e,), c in f.terms.items():
        out[e] = c if p else c.numerator * (scale // c.denominator)
    return out


def _pack(a: list, w: int) -> int:
    """The K[y] element with coefficient list a, low degree first, as the
    int sum_e a[e] * 2^(w*e)."""
    out = 0
    for c in reversed(a):
        out = (out << w) + c
    return out


def _unpack(a: int, w: int) -> list:
    """The coefficient list, low degree first and without zero high
    coefficients, of a packed K[y] element whose coefficients all lie in
    [-2^(w-1), 2^(w-1)): its signed digits base 2^w, each digit taken out
    with the borrow it leaves."""
    half, mask, out = 1 << (w - 1), (1 << w) - 1, []
    while a:
        c = a & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        a = (a - c) >> w
    return out


def _vec_mat(v: dict, rows, n: int, reduce, out: dict) -> dict:
    """out + v * B over the leading n x n block of B, on sparse vectors
    {index: packed K[y] element}, each entry of the result passed through
    reduce when given; rows[i] lists the nonzeros (j, B[i][j]) of row i by
    ascending j."""
    for i, vi in v.items():
        for j, b in rows[i]:
            if j >= n:
                break
            out[j] = out.get(j, 0) + vi * b
    if reduce:
        out = {j: reduce(a) for j, a in out.items()}
    return {j: a for j, a in out.items() if a}


def _charpoly(B, rows, reduce) -> list:
    """p_0..p_t with det(x*I - B) = sum_k p_k x^k, by Berkowitz's
    division-free recurrence (S. J. Berkowitz, IPL 18, 1984), so it holds
    over GF(p) for every p; rows are the nonzeros of B as for _vec_mat, and
    every vector step and every Toeplitz step is passed through reduce when
    given.

    With q the characteristic polynomial of the leading r x r block, highest
    power first, and the next row and column split as [[B_r, c], [R, a]],
    the next one is the Toeplitz matrix with first column
    (1, -a, -R c, -R B_r c, ..., -R B_r^(r-1) c) applied to q."""
    q = [1]
    for r in range(len(B)):
        toeplitz = [1, -B[r][r]]
        col = [[(0, B[i][r])] if B[i][r] else [] for i in range(r)]  # c, as r x 1 rows
        u = {j: B[r][j] for j in range(r) if B[r][j]} if any(col) else {}
        while u:  # u = R B_r^k
            toeplitz.append(-_vec_mat(u, col, 1, reduce, {}).get(0, 0))
            if len(toeplitz) == r + 2:
                break
            u = _vec_mat(u, rows, r, reduce, {})
        q.append(0)
        for i in range(r + 1, 0, -1):  # downwards, so q[i - k] is still old
            acc = q[i]
            for k in range(1, min(i, len(toeplitz) - 1) + 1):
                acc += toeplitz[k] * q[i - k]
            q[i] = reduce(acc) if reduce else acc
    return q[::-1]


def psi(A: ParamMatrix) -> IdealBasis:
    """f_i = (-1)^(t-i) * det of (X+A) with row i+1 deleted.

    The sign makes every f_i monic with leading term x^(t-i) y^(m_i).  Rows
    2..t+1 of X + A are -x*I + B with B over K[y], and row 1 is r; then
    f_0 = det(x*I - B) = sum_k p_k x^k, and for i >= 1 f_i is entry i of
    r * adj(x*I - B) = sum_(k<t) x^k v_k, where v_(t-1) = r and
    v_(k-1) = p_k r + v_k B.  Over QQ the recurrences run on D*B and D*r
    for the lcm D of the denominators of A, which turns the coefficient of
    x^k into D^(t-k) times its value, divided out at the end, to an int
    whenever D^(t-k) divides it; over GF(p) on the residues in [0, p).

    Every element of K[y] is one int: its integer coefficients c_e packed
    as sum_e c_e 2^(w*e), signed (Kronecker substitution y -> 2^w).  A
    product in K[y] is then one int product and a sum one int sum.  Packing
    is a ring homomorphism Z[y] -> Z, so the ints are exact whatever their
    digits do, and a packed int decodes (_unpack) to its coefficients
    whenever all of them lie in [-2^(w-1), 2^(w-1)).  So w is
    b.bit_length() + 1 for a bound b on the absolute value of every
    coefficient decoded:

    * Over QQ only the results are decoded: the coefficients of
      det(x*I - D*B) and of D*r * adj(x*I - D*B).  Each is a t x t
      determinant over Z[x, y] whose rows are rows of x*I - D*B or the row
      D*r.  The l1 norm of coefficients is subadditive and
      submultiplicative, so a determinant's norm is at most the permanent
      of its entries' norms, at most the product of its row sums.  Each row
      sum is at most S, one more than the largest row sum of the norms of
      D*(X+A) without its -x; so b = S^t.
    * Over GF(p) each vector step (_vec_mat) and each Toeplitz step
      (_charpoly) is decoded, reduced mod p and packed again, so every
      factor in a step has coefficients of absolute value below p, and each
      product of two factors adds at most min(len) terms to a coefficient.
      Let L = 1 + sum over the rows of X+A of the length of the row's
      longest entry.  A vector step is a sum of products v_i * b over the
      entries b of one column (in the adjugate, also p_k * r_j), at most
      L - 1 terms in all.  A Toeplitz step adds at most t products
      T_k * q_j to the old q_i, each at most len(q_j) <= L terms: q_j is a
      coefficient of the characteristic polynomial of a leading block, a
      sum of products that take their entries from distinct rows, so its
      degree is at most the sum of the rows' largest degrees.  So
      b = (t + 2) * L * p^2."""
    cell, field = A.cell, A.field
    t = cell.t
    p = field.characteristic
    D = 1 if p else math.lcm(
        *(c.denominator for row in A.entries for e in row for c in e.terms.values())
    )
    # X + A without its -x entries, rows 1..t+1, as coefficient lists
    hb = [[_ky(e, D, p) for e in row] for row in A.entries]
    for i in range(t):  # add y^(d_(i+1)), scaled by D like the rest
        d, e = cell.d_of(i + 1), hb[i][i]
        e.extend([0] * (d + 1 - len(e)))
        e[d] += D
    if p:
        L = 1 + sum(max(map(len, row)) for row in hb)
        w = ((t + 2) * L * p * p).bit_length() + 1
        half, mask = 1 << (w - 1), (1 << w) - 1

        def reduce(a: int) -> int:
            """a with every coefficient taken mod p: _unpack, then _pack of
            the residues, in one pass over the digits."""
            if -half <= a < half:  # a constant, the one digit a
                return a % p
            out = shift = 0
            while a:
                c = a & mask
                if c >= half:
                    c -= mask + 1
                a = (a - c) >> w
                out |= c % p << shift
                shift += w
            return out

    else:
        S = 1 + max(sum(abs(c) for a in row for c in a) for row in hb)
        w = (S**t).bit_length() + 1
        reduce = None
    hb = [[_pack(a, w) for a in row] for row in hb]
    B, r = hb[1:], {j: a for j, a in enumerate(hb[0]) if a}
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in B]

    coeffs = _charpoly(B, rows, reduce)
    vs = [r]
    for k in range(t - 1, 0, -1):
        out = {j: coeffs[k] * a for j, a in r.items()}
        vs.append(_vec_mat(vs[-1], rows, t, reduce, out))
    vs.reverse()  # vs[k] = v_k

    scales = [D ** (t - k) for k in range(t + 1)]
    one = field.one
    polys = []
    for i in range(t + 1):
        entries = coeffs if i == 0 else [v.get(i - 1, 0) for v in vs]
        terms, lm = {}, None
        for k, a in enumerate(entries):
            a = _unpack(a, w)
            if not a:
                continue
            s = scales[k]
            for e, c in enumerate(a):
                if c:
                    terms[k, e] = c if p or s == 1 else c // s if c % s == 0 else Fraction(c, s)
            top = (k, len(a) - 1)  # the largest monomial with x^k
            if lm is None or drl_key(top) > drl_key(lm):
                lm = top
        f = Poly(field, 2, terms, lm)
        expected = (t - i, cell.m[i])
        if lm != expected or terms[lm] != one:
            raise InternalError(
                f"minor {i} of X+A has leading term {f.leading_term() if f else 0}, "
                f"expected monic x^{expected[0]}*y^{expected[1]}"
            )
        polys.append(f)
    return IdealBasis(cell, tuple(polys))


def grade_bound(cell: MonomialCell, i: int, j: int) -> int:
    """Degree cap guaranteed for slot (i, j) of a raw syzygy matrix: one
    less than the entry degree above the diagonal, the entry degree below."""
    u = cell.u(i, j)
    return u - 1 if i <= j else u


def verify_groebner_property(basis: IdealBasis, A: ParamMatrix) -> bool:
    """Certify that f_0..f_t is a Groebner basis by the syzygies X + A of
    its elements, with no division.  A is a matrix over the basis's cell
    and field whose entries keep their raw bounds, such as an admissible A
    with basis psi(A), or the raw matrix canonical.extract_syzygies reads
    off a Groebner basis.  Returns True when

    * every nonzero a_ij has degree at most grade_bound(i, j), and
    * every column j is a syzygy of f_0..f_t:
      y^(d_j) f_(j-1) - x f_j + sum_i a_ij f_(i-1) = 0;

    raises LeadingTermMismatch unless each f_i is monic with leading
    monomial x^(t-i) y^(m_i).

    Why that certifies: the S-polynomial of the adjacent pair f_(j-1), f_j
    is S_j = y^(d_j) f_(j-1) - x f_j, with lcm L_j = x^(t-j+1) y^(m_j), and
    the identity writes S_j = -sum_i a_ij f_(i-1).  For a nonzero a_ij of
    degree e, the leading monomial of a_ij f_(i-1) is
    x^(t-i+1) y^(m_(i-1)+e), and deg L_j - (t-i+1 + m_(i-1)) =
    i - j + m_j - m_(i-1) = u(i, j).  If e < u(i, j) it has a smaller total
    degree than L_j, so it is DRL-below L_j.  If e = u(i, j), which the
    bound allows only for i > j, the degrees tie and its x exponent
    t-i+1 is below t-j+1; DRL breaks a tie by the larger x exponent, so it
    is below L_j again.  So each column is an lcm representation of S_j.
    For i < k - 1 the lcm x^(t-i) y^(m_k) of f_i and f_k is divisible by
    the leading monomial of every f_l in between, so the chain criterion
    reduces the pair to the adjacent pairs i..k, and every S-pair has an
    lcm representation: by Buchberger's criterion in that form
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2 sec. 9)
    f_0..f_t is a Groebner basis.  On psi(A) the identity always holds:
    column j set beside X + A makes a square matrix with a repeated column,
    and expanding its determinant along that column gives the sum.

    Each identity is one int: f_0..f_t and the entries of X + A are packed
    by Kronecker substitution y -> 2^w, x -> 2^(wY), with Y beyond every
    y exponent in the sum.  Packing is a ring homomorphism Z[x, y] -> Z,
    one to one on polynomials whose y exponents stay below Y and whose
    coefficients lie in [-2^(w-1), 2^(w-1)).  Over QQ the f_i are scaled
    by the lcm of their denominators and X + A by the lcm D of A's, so
    the column is an int that must be 0; over GF(p) the coefficients are
    the residues in [0, p) and every digit of the column must vanish mod
    p.  With F the largest absolute coefficient of the scaled f_i, no
    coefficient of a column exceeds F * (2D + sum_i |D a_ij|_1), with
    |.|_1 the sum of absolute coefficients, before any cancellation; w is
    the fewest whole bytes that hold that bound and a sign bit.  Building
    the ints costs a few Python steps per term of the f_i and per nonzero
    slot of A."""
    return not _failing_column(basis, A)


def _failing_column(basis: IdealBasis, A: ParamMatrix) -> int:
    """0 when verify_groebner_property(basis, A) holds, otherwise the
    column j (1-based) that fails it: the column of the first slot over
    its raw bound in row-major order, else the first column that is not a
    syzygy."""
    cell, fs, field = basis.cell, basis.polys, A.field
    t, p = cell.t, field.characteristic
    if A.cell != cell:
        raise ValueError(f"the matrix is one of {A.cell}, the basis of {cell}")
    _check_staircase(basis, field)
    cols, top = [[] for _ in range(t)], 0  # top: the largest entry degree
    for i, row in enumerate(A.entries, 1):
        for j in compress(range(t), map(_terms, row)):  # the nonzero slots
            deg = row[j].degree()
            if deg > grade_bound(cell, i, j + 1):
                return j + 1
            cols[j].append((i - 1, row[j]))
            top = max(top, deg)
    D = 1 if p else math.lcm(
        *(c.denominator for col in cols for _, a in col for c in a.terms.values())
    )
    cols = [[(i, _ky(a, D, p)) for i, a in col] for col in cols]
    _, vals = _int_coefficients(fs, p)
    bound = max(max(map(abs, v)) for v in vals) * (
        2 * D + max(sum(sum(map(abs, a)) for _, a in col) for col in cols)
    )
    s = (bound.bit_length() + 8) // 8  # bytes per digit: 8s >= bits + 1
    w, half = 8 * s, 1 << (8 * s - 1)
    Y = 1 + max(max(map(_y, f.terms)) for f in fs) + max(max(cell.d), top)
    n = (max(max(map(_x, f.terms)) for f in fs) + 2) * Y  # digits of any sum
    packed = [
        _kronecker(zip((b + Y * a for a, b in f.terms), v), s, n) for f, v in zip(fs, vals)
    ]
    H = int.from_bytes(half.to_bytes(s, "little") * n, "little")  # every digit half
    for j, col in enumerate(cols, 1):
        total = (packed[j - 1] << w * cell.d_of(j)) - (packed[j] << w * Y)
        if D != 1:
            total *= D
        for i, a in col:
            total += _pack(a, w) * packed[i]
        if not total:
            continue
        if not p or any(map(p.__rmod__, map(half.__rsub__, _digits(total + H, s, n)))):
            return j
    return 0


def _digits(a: int, s: int, n: int) -> set:
    """The distinct digits of a nonnegative int below 2^(8sn), base 2^(8s)."""
    b = a.to_bytes(s * n, "little")
    return {int.from_bytes(b[k : k + s], "little") for k in range(0, len(b), s)}


def _check_staircase(basis: IdealBasis, field) -> None:
    """Raise unless f_0..f_t live in `field` (FieldMismatch) and each f_i is
    monic with leading monomial x^(t-i) y^(m_i) (LeadingTermMismatch)."""
    cell, fs = basis.cell, basis.polys
    t = cell.t
    if len(fs) != t + 1:
        raise LeadingTermMismatch(f"expected {t + 1} polynomials, got {len(fs)}")
    for i, f in enumerate(fs):
        if f.field != field:
            raise FieldMismatch(f"f_{i} lives in {f.field}, not {field}")
        expected = (t - i, cell.m[i])
        if f.is_zero() or f.leading_monomial() != expected:
            raise LeadingTermMismatch(
                f"f_{i} must have leading monomial x^{expected[0]}*y^{expected[1]}"
            )
        if f.leading_coeff() != field.one:
            raise LeadingTermMismatch(f"f_{i} must be monic")


def _int_coefficients(fs, p: int) -> tuple:
    """(D, vals): vals[i] lists the coefficients of fs[i], in the order of
    its terms, as ints: the residues over GF(p), where D = 1, and over QQ
    each coefficient times the lcm D of every denominator among them."""
    vals = [list(f.terms.values()) for f in fs]
    if p or not any(Fraction in set(map(type, v)) for v in vals):
        return 1, vals
    D = math.lcm(*(c.denominator for v in vals for c in v))
    return D, [[c.numerator * (D // c.denominator) for c in v] for v in vals]


def _kronecker(items, s: int, n: int) -> int:
    """The int sum c * 2^(8s*k) over the (k, c) in items, for distinct digit
    indices k < n and |c| < 2^(8s-1): every digit is written offset by
    2^(8s-1) into one byte string, and the offsets are subtracted at once."""
    half = 1 << (8 * s - 1)
    zero = half.to_bytes(s, "little") * n
    buf = bytearray(zero)
    for k, c in items:
        k *= s
        buf[k : k + s] = (c + half).to_bytes(s, "little")
    return int.from_bytes(buf, "little") - int.from_bytes(zero, "little")


def sample(cell: MonomialCell, field, seed: int) -> ParamMatrix:
    """Draw every admissible coefficient i.i.d.: uniform on GF(p), or
    uniform on the integers -9..9 over QQ.  Deterministic per seed; slots
    are filled row-major, coefficients low degree first."""
    if not char_ok(field, hilbert_function(cell)):
        warnings.warn(
            f"characteristic of {field} is small for {cell}; "
            "Betti computations over this field may misbehave",
            stacklevel=2,
        )
    rng = random.Random(seed)
    t = cell.t
    rows = []
    for i in range(1, t + 2):
        row = []
        for j in range(1, t + 1):
            b = cell.bound(i, j)
            if b < 0:
                row.append(Poly.zero(field, 1))
            else:
                coeffs = [field.sample_scalar(rng) for _ in range(b + 1)]
                row.append(Poly(field, 1, {(k,): c for k, c in enumerate(coeffs) if c}))
        rows.append(tuple(row))
    return ParamMatrix(cell, field, tuple(rows))


def param_matrix_to_json(A: ParamMatrix) -> dict:
    return {
        "m": list(A.cell.m),
        "index_base": 1,
        "field": A.field.to_json(),
        "entries": [[format_poly(e) for e in row] for row in A.entries],
    }


def param_matrix_from_json(obj: dict, field=None) -> ParamMatrix:
    if not isinstance(obj, dict):
        raise ValueError("a parameter matrix must be a JSON object")
    m, rows = obj.get("m"), obj.get("entries")
    if not isinstance(m, list) or any(type(v) is not int for v in m):
        raise ValueError(f"'m' must be a list of integers, got {m!r}")
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(isinstance(s, str) for s in row) for row in rows
    ):
        raise ValueError("'entries' must be a list of rows of polynomial strings")
    cell = make_cell(m)  # the size gate, before any entry is parsed
    if field is None:
        field = field_from_json(obj.get("field"))
    zero = Poly.zero(field, 1)  # one shared value for the many "0" slots
    entries = [[zero if s == "0" else parse_poly(s, field, 1) for s in row] for row in rows]
    return check_membership(cell, entries, field)


__all__ = [
    "ParamMatrix",
    "IdealBasis",
    "check_membership",
    "psi",
    "verify_groebner_property",
    "sample",
    "param_matrix_to_json",
    "param_matrix_from_json",
]
