"""The forward parametrization: from an admissible parameter matrix A to
the ideal basis given by the signed maximal minors of X + A.

X is the (t+1) x t matrix with y^(d_i) on the diagonal and -x on the
subdiagonal; its signed minors are the staircase monomials x^(t-i)y^(m_i).
Adding an A whose entries respect the cell's degree bounds perturbs those
minors into a basis f_0..f_t with the same leading terms.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .cell import MonomialCell, hilbert_function, make_cell
from .errors import (
    BoundViolation,
    FieldMismatch,
    InternalError,
    LeadingTermMismatch,
    MatrixTooLarge,
)
from .field import char_ok, field_from_json
from .groebner import _PackedDivisors
from .poly import Poly, _DrlPacking, format_poly, parse_poly


# The largest number of columns a minor expansion takes.  Cost grows about
# like t^3 even on the sparsest matrices (canonicalize of x^t, y takes about
# 6 s at t = 300 and 19 s at t = 400), and the expansion recurses once per
# column, so this also keeps it far below Python's recursion limit.
MAX_MINOR_COLUMNS = 300


def check_minor_columns(ncols: int):
    if ncols > MAX_MINOR_COLUMNS:
        raise MatrixTooLarge(
            f"minor expansion over {ncols} columns exceeds the cap of {MAX_MINOR_COLUMNS}"
        )


@dataclass(frozen=True)
class ParamMatrix:
    """A (t+1) x t matrix of univariate polynomials in y.

    A value is admissible, the coordinates of one point of the cell, only
    once check_membership has passed on it; the inverse map also keeps its
    working matrix here, under the looser raw bounds, while it reduces it."""

    cell: MonomialCell
    field: object
    entries: tuple  # (t+1) x t nested tuples of Poly in K[y]

    def entry(self, i: int, j: int) -> Poly:
        """1-based access, rows i = 1..t+1, columns j = 1..t."""
        return self.entries[i - 1][j - 1]


@dataclass(frozen=True)
class IdealBasis:
    """Polynomials f_0..f_t with in(f_i) = x^(t-i) y^(m_i), monic."""

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


def zero_matrix(cell: MonomialCell, field) -> ParamMatrix:
    t = cell.t
    z = Poly.zero(field, 1)
    return ParamMatrix(cell, field, tuple(tuple(z for _ in range(t)) for _ in range(t + 1)))


def param_matrix_from_strings(cell: MonomialCell, field, string_rows) -> ParamMatrix:
    entries = [[parse_poly(s, field, 1) for s in row] for row in string_rows]
    return check_membership(cell, entries, field)


def hb_matrix(A: ParamMatrix) -> list:
    """The full (t+1) x t matrix X + A over K[x, y], as nested lists."""
    cell, field = A.cell, A.field
    t = cell.t
    rows = [[A.entries[r][c].embed(2) for c in range(t)] for r in range(t + 1)]
    for i in range(1, t + 1):
        rows[i - 1][i - 1] = rows[i - 1][i - 1] + Poly.monomial(field, 2, (0, cell.d_of(i)))
        rows[i][i - 1] = rows[i][i - 1] - Poly.monomial(field, 2, (1, 0))
    return rows


class _MinorTable:
    """Memoized cofactor expansion over an integer image of the matrix.

    Sub-minors are shared across every minor asked for via (row bitmask,
    column tuple) keys.  The expansion column is the one with the most zero
    entries left; the zero pattern is one row bitmask per column, so that
    count is a popcount.

    A monomial is one int of poly._DrlPacking, the DRL packing that division
    shares.  No term of a minor has a larger total degree than the sum over
    columns of the largest entry degree, and the packing is as wide as that
    sum needs, so multiplying monomials is one int addition that never
    carries.  Coefficients are ints: over GF(p) they are the Poly's own
    residues in [0, p), taken and handed back unchanged; over QQ each row is
    scaled by the lcm of its denominators, and a minor is divided by the
    product of the scales of the rows it keeps when it is converted back.
    Only the minors handed back become Poly values again.

    The expansion recurses once per column, so a matrix with more than
    MAX_MINOR_COLUMNS columns is refused up front.
    """

    def __init__(self, rows, field, nvars):
        ncols = len(rows[0]) if rows else 0
        check_minor_columns(ncols)
        for row in rows:
            for e in row:
                if not isinstance(e, Poly):
                    raise TypeError(f"expected a polynomial, got {e!r}")
                if e.field != field:
                    raise FieldMismatch(f"mixed coefficient fields {field} and {e.field}")
                if e.nvars != nvars:
                    raise ValueError(
                        f"mixed polynomial rings ({nvars} vs {e.nvars} variables)"
                    )
        self.field = field
        self.nvars = nvars
        top = sum(
            max((sum(m) for row in rows for m in row[c].terms), default=0)
            for c in range(ncols)
        )
        self.packing = _DrlPacking(nvars, top)
        pack = self.packing.pack
        p = self.modulus = field.characteristic
        if p:
            self.scales = [1] * len(rows)
        else:
            self.scales = [
                math.lcm(*(c.denominator for e in row for c in e.terms.values()))
                for row in rows
            ]

        def image(c, s):
            return c if p else c.numerator * (s // c.denominator)

        # columns[c][r]: entry (r, c) as {packed monomial: int coefficient}
        self.columns = [
            [
                {pack(m): image(v, s) for m, v in row[c].terms.items()}
                for row, s in zip(rows, self.scales)
            ]
            for c in range(ncols)
        ]
        self.nonzero = [
            sum(1 << r for r, e in enumerate(col) if e) for col in self.columns
        ]
        self.memo: dict = {(0, ()): {0: 1}}  # the empty minor is 1

    def minor(self, rowmask: int, cols: tuple) -> dict:
        """The minor on the rows set in rowmask and on cols, as
        {packed monomial: int coefficient} over the scaled rows."""
        key = (rowmask, cols)
        acc = self.memo.get(key)
        if acc is not None:
            return acc
        nonzero = self.nonzero
        best_pos, best_zeros = 0, -1
        for pos, c in enumerate(cols):
            nz = (rowmask & ~nonzero[c]).bit_count()
            if nz > best_zeros:
                best_pos, best_zeros = pos, nz
        c = cols[best_pos]
        sub_cols = cols[:best_pos] + cols[best_pos + 1 :]
        column, live = self.columns[c], nonzero[c]
        acc = {}
        rest, k = rowmask, 0
        while rest:
            low = rest & -rest
            rest ^= low
            if low & live:
                cof = self.minor(rowmask ^ low, sub_cols)
                sign = -1 if (k + best_pos) % 2 else 1
                for m1, c1 in column[low.bit_length() - 1].items():
                    c1 *= sign
                    for m2, c2 in cof.items():
                        m = m1 + m2
                        acc[m] = acc.get(m, 0) + c1 * c2
            k += 1
        p = self.modulus
        if p:
            acc = {m: r for m, v in acc.items() if (r := v % p)}
        else:
            acc = {m: v for m, v in acc.items() if v}
        self.memo[key] = acc
        return acc

    def minor_poly(self, rowmask: int, cols: tuple) -> Poly:
        """The minor on the given rows and columns, back in Poly form."""
        unpack, minor = self.packing.unpack, self.minor(rowmask, cols)
        if self.modulus:
            terms = {unpack(m): v for m, v in minor.items()}
        else:
            den = math.prod(s for r, s in enumerate(self.scales) if rowmask >> r & 1)
            terms = {unpack(m): Fraction(v, den) for m, v in minor.items()}
        return Poly(self.field, self.nvars, terms)


def determinant(rows) -> Poly:
    """Exact determinant of a square matrix of polynomials."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        raise ValueError("empty matrix")
    probe = rows[0][0]
    if not isinstance(probe, Poly):
        raise TypeError(f"expected a polynomial, got {probe!r}")
    table = _MinorTable(rows, probe.field, probe.nvars)
    return table.minor_poly((1 << n) - 1, tuple(range(n)))


def maximal_minors(rows, field, nvars) -> list:
    """For a (t+1) x t matrix: the t x t minor obtained by deleting each
    row in turn, computed off one shared memo table."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    if nr != nc + 1 or any(len(r) != nc for r in rows):
        raise ValueError("maximal minors expect one more row than columns")
    table = _MinorTable(rows, field, nvars)
    all_rows = (1 << nr) - 1
    cols = tuple(range(nc))
    return [table.minor_poly(all_rows ^ (1 << r), cols) for r in range(nr)]


def psi(A: ParamMatrix) -> IdealBasis:
    """f_i = (-1)^(t-i) * det of (X+A) with row i+1 deleted.

    The sign makes every f_i monic with leading term x^(t-i) y^(m_i)."""
    cell, field = A.cell, A.field
    t = cell.t
    minors = maximal_minors(hb_matrix(A), field, 2)
    polys = []
    for i in range(t + 1):
        f = minors[i] if (t - i) % 2 == 0 else -minors[i]
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
    cell = make_cell(m)
    if field is None:
        field = field_from_json(obj.get("field"))
    entries = [[parse_poly(s, field, 1) for s in row] for row in rows]
    return check_membership(cell, entries, field)


__all__ = [
    "ParamMatrix",
    "IdealBasis",
    "check_membership",
    "zero_matrix",
    "param_matrix_from_strings",
    "hb_matrix",
    "determinant",
    "maximal_minors",
    "psi",
    "verify_groebner_property",
    "sample",
    "param_matrix_to_json",
    "param_matrix_from_json",
]
