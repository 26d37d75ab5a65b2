"""Combinatorics of the monomial ideal I0 = (x^t, x^(t-1)y^m1, ..., y^mt).

A cell is determined by its m-vector.  From it everything else is derived:
the d-vector of diagonal jumps, the Hilbert function of R/I0 (by counting
staircase monomials), the degree matrix U, the raw degree bounds of a
syzygy matrix, the degree-bound matrix b for parameter matrices, the
parameter count N (the dimension) with its upper and lower bounds, the
special index sets and the generator-degree data used by the Betti
machinery.  make_cell, the validating constructor, is also the one size
gate: it refuses a cell past MAX_COLENGTH.

All (i, j) indices in this module's API are 1-based, mirroring the matrix
conventions used throughout: rows i = 1..t+1, columns j = 1..t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadMVector,
    ColengthTooSmall,
    MatrixTooLarge,
    NotLexSegment,
    WrongInitialIdeal,
)

# The largest colength n = sum(m) that make_cell accepts; n bounds t, every
# m_i and N.  At n ~ 300 (README) every command takes at most 0.36 s on the
# dense, m = 2i, m = 10i and few-step cells, but on m = (0, 1, ..., 1),
# t = n, sample takes 3.06 / 2.81 s (GF(10007) / QQ), verify 3.02 s and
# canonicalize 10.4 s: the cap is the least that every shipped input needs.
MAX_COLENGTH = 300


@dataclass(frozen=True)
class MonomialCell:
    m: tuple

    @property
    def t(self) -> int:
        return len(self.m) - 1

    @property
    def d(self) -> tuple:
        return tuple(self.m[i] - self.m[i - 1] for i in range(1, len(self.m)))

    def d_of(self, i: int) -> int:
        """d_i = m_i - m_(i-1) for 1 <= i <= t."""
        return self.m[i] - self.m[i - 1]

    def u(self, i: int, j: int) -> int:
        """Entry degree u_(i,j) = i - j + m_j - m_(i-1)."""
        return i - j + self.m[j] - self.m[i - 1]

    def raw_bound(self, i: int, j: int) -> int:
        """Degree cap guaranteed for the (i, j) slot of a raw syzygy matrix:
        u_(i,j) - 1 on and above the diagonal, u_(i,j) below it."""
        u = self.u(i, j)
        return u - 1 if i <= j else u

    def bound(self, i: int, j: int) -> int:
        """Degree cap for the (i, j) slot of an admissible parameter matrix;
        negative means the slot is forced to zero."""
        if i <= j:
            return min(self.u(i, j) - 1, self.d_of(i) - 1)
        return min(self.u(i, j), self.d_of(j) - 1)

    def lex_segment(self) -> bool:
        return all(self.d_of(i) > 0 for i in range(1, self.t + 1))

    def colength(self) -> int:
        return sum(self.m)

    def contains_monomial(self, a: int, b: int) -> bool:
        """Whether x^a y^b lies in I0."""
        if a >= self.t:
            return True
        return b >= self.m[self.t - a]

    def generator_degrees(self) -> tuple:
        """deg f_i = t - i + m_i for i = 0..t (the staircase generators)."""
        t = self.t
        return tuple(t - i + self.m[i] for i in range(t + 1))

    def minimal_generators(self) -> tuple:
        """The minimal monomial generators as (x-exp, y-exp) pairs, listed
        with descending x exponent."""
        t = self.t
        out = []
        for i in range(t + 1):
            if i == t or self.m[i + 1] > self.m[i]:
                out.append((t - i, self.m[i]))
        return tuple(out)

    def __str__(self):
        return "I0(m=" + ",".join(str(v) for v in self.m) + ")"


def make_cell(m) -> MonomialCell:
    m = tuple(int(v) for v in m)
    if len(m) < 2:
        raise BadMVector("m must list m_0..m_t with t >= 1")
    if m[0] != 0:
        raise BadMVector(f"m_0 must be 0, got {m[0]}")
    if any(v < 0 for v in m):
        raise BadMVector("m entries must be nonnegative")
    if any(m[i] > m[i + 1] for i in range(len(m) - 1)):
        raise BadMVector(f"m must be non-decreasing, got {m}")
    if m[1] == 0:
        raise BadMVector("m_1 must be positive (otherwise t is not minimal)")
    if (n := sum(m)) > MAX_COLENGTH:
        raise MatrixTooLarge(f"colength {n} exceeds the cap of {MAX_COLENGTH}")
    return MonomialCell(m)


def hilbert_function(cell: MonomialCell) -> tuple:
    """h_i = number of degree-i standard monomials, up to the last nonzero."""
    h = []
    i = 0
    while True:
        cnt = 0
        for a in range(0, min(i, cell.t - 1) + 1):
            if not cell.contains_monomial(a, i - a):
                cnt += 1
        if cnt == 0:
            break
        h.append(cnt)
        i += 1
    return tuple(h)


@dataclass(frozen=True)
class SlotMatrix:
    """A (t+1) x t integer matrix over the slots of a cell, such as the
    degree matrix U or the bound matrix b."""

    rows: tuple

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]


def degree_matrix(cell: MonomialCell) -> SlotMatrix:
    t = cell.t
    return SlotMatrix(
        tuple(tuple(cell.u(i, j) for j in range(1, t + 1)) for i in range(1, t + 2))
    )


def bound_matrix(cell: MonomialCell) -> SlotMatrix:
    t = cell.t
    return SlotMatrix(
        tuple(tuple(cell.bound(i, j) for j in range(1, t + 1)) for i in range(1, t + 2))
    )


def param_count(cell: MonomialCell) -> int:
    """N = sum of (b_(i,j) + 1) over the slots with b_(i,j) >= 0."""
    t = cell.t
    return sum(
        cell.bound(i, j) + 1
        for i in range(1, t + 2)
        for j in range(1, t + 1)
        if cell.bound(i, j) >= 0
    )


def dimension(cell: MonomialCell) -> int:
    """Dimension of the cell: its parameter count N, as the admissible
    matrices are the cell's affine coordinates.  On lex cells N also equals
    the Hilbert-function formula and its compact form, which the tests
    check."""
    return param_count(cell)


def dimension_bounds(cell: MonomialCell) -> tuple:
    """(max(n+t, n+2), 2n) where n is the colength; requires n >= 2."""
    if not cell.lex_segment():
        raise NotLexSegment(f"bounds require a lex-segment cell, got {cell}")
    n = cell.colength()
    if n < 2:
        raise ColengthTooSmall(f"bounds require colength >= 2, got {n}")
    return max(n + cell.t, n + 2), 2 * n


def special_indices(cell: MonomialCell) -> tuple:
    """(I, J) with I = indices of jumps d_i >= 3 and J = jumps d_j >= 2."""
    t = cell.t
    big = tuple(i for i in range(1, t + 1) if cell.d_of(i) >= 3)
    jumps = tuple(j for j in range(1, t + 1) if cell.d_of(j) >= 2)
    return big, jumps


def lex_betti(cell: MonomialCell) -> dict:
    """Degrees of the minimal generators of I0, with multiplicity."""
    if not cell.lex_segment():
        raise NotLexSegment(f"lex baseline requires a lex-segment cell, got {cell}")
    counts: dict = {}
    for deg in cell.generator_degrees():
        counts[deg] = counts.get(deg, 0) + 1
    return dict(sorted(counts.items()))


def below_diagonal_stats(cell: MonomialCell) -> tuple:
    """(slots of degree cap exactly 1, forced-zero slots), below the diagonal."""
    t = cell.t
    deg1 = 0
    zeros = 0
    for i in range(2, t + 2):
        for j in range(1, min(i, t + 1)):
            b = cell.bound(i, j)
            if b == 1:
                deg1 += 1
            elif b < 0:
                zeros += 1
    return deg1, zeros


def cell_from_minimal_generators(monos) -> MonomialCell:
    """Recover the cell whose minimal monomial generators are given, as
    (x-exp, y-exp) pairs.  Fails when the generators are not Artinian, and
    refuses a cell past the colength cap before its m-vector is built."""
    monos = [tuple(m) for m in monos]
    pure_x = [a for a, b in monos if b == 0]
    pure_y = [b for a, b in monos if a == 0]
    if not pure_x or not pure_y:
        raise WrongInitialIdeal(
            "initial ideal is not Artinian: needs a pure power of x and of y"
        )
    t = min(pure_x)
    if t < 1:
        raise WrongInitialIdeal("initial ideal is the unit ideal")
    least = t - 1 + min(pure_y)  # m_1, ..., m_(t-1) >= 1 and m_t = min(pure_y)
    if least > MAX_COLENGTH:
        raise MatrixTooLarge(f"colength at least {least} exceeds the cap of {MAX_COLENGTH}")
    m = [0] * (t + 1)
    for i in range(1, t + 1):
        m[i] = min(b for a, b in monos if a <= t - i)
    cell = make_cell(m)
    if set(cell.minimal_generators()) != set(monos):
        raise WrongInitialIdeal(
            f"generators {sorted(monos)} do not describe a staircase cell"
        )
    return cell
