"""The forward parametrization: from an admissible parameter matrix A to
the ideal basis given by the signed maximal minors of X + A.

X is the (t+1) x t matrix with y^(d_i) on the diagonal and -x on the
subdiagonal; its signed minors are the staircase monomials x^(t-i)y^(m_i).
Adding an A whose entries respect the cell's degree bounds perturbs those
minors into a basis f_0..f_t with the same leading terms.  psi computes
them as a characteristic polynomial and an adjugate over K[y], so its cost
is polynomial in t.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .cell import MonomialCell, hilbert_function, make_cell
from .errors import BoundViolation, InternalError, LeadingTermMismatch
from .field import char_ok, field_from_json
from .groebner import _PackedDivisors
from .poly import Poly, format_poly, parse_poly


@dataclass(frozen=True)
class ParamMatrix:
    """A (t+1) x t matrix of univariate polynomials in y.

    A value is admissible, the coordinates of one point of the cell, when
    every entry is within its cell.bound: check_membership checks that on
    input, and canonical_matrix returns its working matrix, kept here under
    the looser raw bounds while it is reduced, once _find_violation finds
    no slot over its bound."""

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


def _addmul(acc: list, a: list, b: list) -> list:
    """acc += a * b on coefficient lists; acc grows as needed."""
    if len(a) > len(b):
        a, b = b, a
    n, lb = len(a) + len(b) - 1, len(b)
    if len(acc) < n:
        acc.extend([0] * (n - len(acc)))
    for i, c in enumerate(a):
        if c:
            acc[i : i + lb] = map(add, acc[i : i + lb], [c * v for v in b])
    return acc


def _trim(a: list, p: int) -> list:
    """a reduced mod p (when p) and without zero high coefficients."""
    if p:
        a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _vec_mat(v: dict, rows, n: int, p: int, out: dict) -> dict:
    """out + v * B over the leading n x n block of B, on sparse vectors
    {index: coefficient list}; rows[i] lists the nonzeros (j, B[i][j]) of
    row i by ascending j."""
    for i, vi in v.items():
        for j, b in rows[i]:
            if j >= n:
                break
            _addmul(out.setdefault(j, []), vi, b)
    return {j: a for j, a in ((j, _trim(a, p)) for j, a in out.items()) if a}


def _charpoly(B, rows, p: int) -> list:
    """p_0..p_t with det(x*I - B) = sum_k p_k x^k, by Berkowitz's
    division-free recurrence (S. J. Berkowitz, IPL 18, 1984), so it holds
    over GF(p) for every p; rows are the nonzeros of B as for _vec_mat.

    With q the characteristic polynomial of the leading r x r block, highest
    power first, and the next row and column split as [[B_r, c], [R, a]],
    the next one is the Toeplitz matrix with first column
    (1, -a, -R c, -R B_r c, ..., -R B_r^(r-1) c) applied to q."""
    q = [[1]]
    for r in range(len(B)):
        toeplitz = [[1], [-v for v in B[r][r]]]
        col = [[(0, B[i][r])] if B[i][r] else [] for i in range(r)]  # c, as r x 1 rows
        w = {j: B[r][j] for j in range(r) if B[r][j]} if any(col) else {}
        while w:  # w = R B_r^k
            toeplitz.append([-v for v in _vec_mat(w, col, 1, p, {}).get(0, [])])
            if len(toeplitz) == r + 2:
                break
            w = _vec_mat(w, rows, r, p, {})
        q.append([])
        for i in range(r + 1, 0, -1):  # downwards, so q[i - k] is still old
            for k in range(1, min(i, len(toeplitz) - 1) + 1):
                if toeplitz[k] and q[i - k]:
                    _addmul(q[i], toeplitz[k], q[i - k])
            q[i] = _trim(q[i], p)
    return q[::-1]


def psi(A: ParamMatrix) -> IdealBasis:
    """f_i = (-1)^(t-i) * det of (X+A) with row i+1 deleted.

    The sign makes every f_i monic with leading term x^(t-i) y^(m_i).  Rows
    2..t+1 of X + A are -x*I + B with B over K[y], and row 1 is r; then
    f_0 = det(x*I - B) = sum_k p_k x^k, and for i >= 1 f_i is entry i of
    r * adj(x*I - B) = sum_(k<t) x^k v_k, where v_(t-1) = r and
    v_(k-1) = p_k r + v_k B.  Each product is one in K[y], on int
    coefficient lists: residues over GF(p); over QQ, D*B and D*r for the
    lcm D of the denominators of A, which turns the coefficient of x^k into
    D^(t-k) times its value, divided out at the end."""
    cell, field = A.cell, A.field
    t = cell.t
    p = field.characteristic
    D = 1 if p else math.lcm(
        *(c.denominator for row in A.entries for e in row for c in e.terms.values())
    )
    # X + A without its -x entries, rows 1..t+1
    hb = [[_ky(e, D, p) for e in row] for row in A.entries]
    for i in range(t):  # add y^(d_(i+1)), scaled by D like the rest
        d, e = cell.d_of(i + 1), hb[i][i]
        e.extend([0] * (d + 1 - len(e)))
        e[d] += D
    B, r = hb[1:], {j: e for j, e in enumerate(hb[0]) if e}
    rows = [[(j, e) for j, e in enumerate(row) if e] for row in B]

    coeffs = _charpoly(B, rows, p)
    vs = [r]
    for k in range(t - 1, 0, -1):
        out = {j: _addmul([], coeffs[k], e) for j, e in r.items()}
        vs.append(_vec_mat(vs[-1], rows, t, p, out))
    vs.reverse()  # vs[k] = v_k

    polys = []
    for i in range(t + 1):
        entries = coeffs if i == 0 else [v.get(i - 1, ()) for v in vs]
        terms = {
            (k, e): c if p else Fraction(c, D ** (t - k))
            for k, a in enumerate(entries)
            for e, c in enumerate(a)
            if c
        }
        f = Poly(field, 2, terms)
        expected = (t - i, cell.m[i])
        if f.is_zero() or f.leading_monomial() != expected or f.leading_coeff() != field.one:
            raise InternalError(
                f"minor {i} of X+A has leading term {f.leading_term() if f else 0}, "
                f"expected monic x^{expected[0]}*y^{expected[1]}"
            )
        polys.append(f)
    return IdealBasis(cell, tuple(polys))


def verify_groebner_property(basis: IdealBasis) -> bool:
    """Certify the basis is a Groebner basis by reducing the t critical
    S-polynomials y^(d_i) f_(i-1) - x f_i; no full Buchberger run needed."""
    cell = basis.cell
    t = cell.t
    fs = basis.polys
    if len(fs) != t + 1:
        raise LeadingTermMismatch(f"expected {t + 1} polynomials, got {len(fs)}")
    field = fs[0].field
    for i, f in enumerate(fs):
        expected = (t - i, cell.m[i])
        if f.is_zero() or f.leading_monomial() != expected:
            raise LeadingTermMismatch(
                f"f_{i} must have leading monomial x^{expected[0]}*y^{expected[1]}"
            )
        if f.leading_coeff() != field.one:
            raise LeadingTermMismatch(f"f_{i} must be monic")
    _, reductions = critical_reductions(basis)
    return not any(rem for _, rem in reductions)


def critical_reductions(basis: IdealBasis):
    """Divide, for i = 1..t, the critical S-polynomial y^(d_i) f_(i-1) - x f_i
    by f_0..f_t exactly as groebner.divide would.  The basis is a Groebner
    basis exactly when every remainder is zero; then the quotients give the
    columns of its Hilbert-Burch matrix.

    Returns f_0..f_t packed once (a groebner._PackedDivisors, wide enough
    for the degree of every S-polynomial) and a lazy iterator over the t
    divisions, so a caller can stop at the first nonzero remainder.  Each
    division is a (quotients, remainder) pair of packed images, which
    `packed.poly` turns into Poly values.  Each S-polynomial is built on
    the packed images, where multiplying by y^(d_i) or by x is one int
    addition per term."""
    cell = basis.cell
    fs = basis.polys
    d = [cell.d_of(i) for i in range(1, cell.t + 1)]
    top = max(
        (max(fs[i - 1].degree() + d[i - 1], fs[i].degree() + 1) for i in range(1, len(fs))),
        default=0,
    )
    packed = _PackedDivisors(fs[0], top, fs)
    pack = packed.packing.pack
    x = pack((1, 0))

    def reductions():
        for i in range(1, cell.t + 1):
            quots = [{} for _ in fs]
            s = packed.difference(i - 1, pack((0, d[i - 1])), i, x)
            rem = packed.divide(s, quots=quots)
            yield quots, rem

    return packed, reductions()


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
                coeffs = [((k,), field.sample_scalar(rng)) for k in range(b + 1)]
                row.append(Poly.from_terms(field, 1, coeffs))
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
    entries = [[parse_poly(s, field, 1) for s in row] for row in rows]
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
