"""Graded Betti numbers and Betti strata of the projective cell.

The free resolution built from the homogenized Hilbert-Burch matrix has
generator degrees deg f_i = t - i + m_i (i = 0..t) and syzygy degrees
deg f_i + 1 (columns i = 1..t).  In each degree j the resolution
contributes the block of the matrix with rows w_j (generators of degree j)
and columns v_j (syzygies of degree j); those slots carry constants, and
beta_0,j = #w_j - rank, beta_1,j = #v_j - rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cell import MonomialCell, hilbert_function, lex_betti
from .errors import CharTooSmall, EmptyStratum, InternalError, NotLexSegment
from .field import char_ok
from .hilburch import ParamMatrix


@dataclass(frozen=True)
class ResolutionDegrees:
    """p[i] = degree of the generator carrying f_i (i = 0..t);
    q[i-1] = degree of syzygy column i (i = 1..t)."""

    p: tuple
    q: tuple


def resolution_degrees(cell: MonomialCell) -> ResolutionDegrees:
    degs = cell.generator_degrees()
    return ResolutionDegrees(degs, tuple(degs[i] + 1 for i in range(1, cell.t + 1)))


def index_sets(cell: MonomialCell, j: int) -> tuple:
    """(w_j, v_j): generator indices of degree j and column indices of
    syzygy degree j, both ascending."""
    if not cell.lex_segment():
        raise NotLexSegment(f"index sets require a lex-segment cell, got {cell}")
    rd = resolution_degrees(cell)
    w = tuple(i for i in range(cell.t + 1) if rd.p[i] == j)
    v = tuple(c for c in range(1, cell.t + 1) if rd.q[c - 1] == j)
    return w, v


def block_matrix(A: ParamMatrix, j: int) -> list:
    """The #w_j x #v_j scalar block pairing degree-j generators with
    degree-j syzygies; its slots sit strictly below the diagonal with
    degree cap 0, which is asserted."""
    cell = A.cell
    w, v = index_sets(cell, j)
    rows = []
    for i in w:
        row = []
        for c in v:
            if not (i + 1 > c) or cell.bound(i + 1, c) != 0:
                raise InternalError(
                    f"block slot ({i + 1},{c}) is not a below-diagonal constant"
                )
            entry = A.entry(i + 1, c)
            if entry.degree() > 0:
                raise InternalError(f"block slot ({i + 1},{c}) is not constant: {entry}")
            row.append(entry.coeff((0,)))
        rows.append(row)
    return rows


def matrix_rank(rows, field) -> int:
    """Exact rank by Gaussian elimination over the field."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    p = field.characteristic
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv(m[rank][col])
        for r in range(rank + 1, nrows):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, ncols):
                    v = m[r][c] - factor * m[rank][c]
                    m[r][c] = v % p if p else v
        rank += 1
        if rank == nrows:
            break
    return rank


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti data of one ideal, with the staircase baseline."""

    beta0: dict
    beta1: dict
    baseline: dict

    def codim_total(self) -> int:
        return sum(self.beta1.get(j, 0) * u for j, u in self.beta0.items())


def betti_numbers(A: ParamMatrix) -> BettiTable:
    """beta_0,j = #w_j - rank(block), beta_1,j = #v_j - rank(block)."""
    cell, field = A.cell, A.field
    if not cell.lex_segment():
        raise NotLexSegment(f"Betti strata require a lex-segment cell, got {cell}")
    if not char_ok(field, hilbert_function(cell)):
        raise CharTooSmall(
            f"characteristic of {field} must be 0 or exceed the Hilbert function support of {cell}"
        )
    rd = resolution_degrees(cell)
    beta0: dict = {}
    beta1: dict = {}
    for j in sorted(set(rd.p) | set(rd.q)):
        w, v = index_sets(cell, j)
        r = matrix_rank(block_matrix(A, j), field)
        b0 = len(w) - r
        b1 = len(v) - r
        if b0:
            beta0[j] = b0
        if b1:
            beta1[j] = b1
    return BettiTable(beta0, beta1, lex_betti(cell))


def strata_codim(cell: MonomialCell, j: int, u: int) -> int:
    """Codimension of the locus with at least u degree-j minimal
    generators; nonempty exactly on the stated window."""
    w, v = index_sets(cell, j)
    b0_lex, b1_lex = len(w), len(v)
    if u < 0 or u < b0_lex - b1_lex or u > b0_lex:
        raise EmptyStratum(
            f"degree {j}: u={u} outside the window "
            f"[{max(b0_lex - b1_lex, 0)}, {b0_lex}]"
        )
    # Determinantal codimension of rank <= #w - u inside a #w x #v matrix
    # of independent coordinates; equals beta_1,j(J) * beta_0,j(J).
    return (b1_lex - b0_lex + u) * u


def strata_codim_total(cell: MonomialCell, beta: dict) -> int:
    """Transversal total over the prescribed degrees; cross-checked against
    the per-ideal product form."""
    total = sum(strata_codim(cell, j, u) for j, u in beta.items())
    by_products = 0
    for j, u in beta.items():
        w, v = index_sets(cell, j)
        beta1_of_ideal = len(v) - len(w) + u
        by_products += beta1_of_ideal * u
    if total != by_products:
        raise InternalError("stratum codimension forms disagree")
    return total
