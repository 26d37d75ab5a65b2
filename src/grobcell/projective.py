"""The lift to K[x, y, z]: the projective parametrization psi_bar.

Because the term order compares total degree first, a basis and its
homogenization share leading terms, so the projective basis is literally
the homogenization of the affine one; the tests check this against the
direct three-variable minors of X + A^hom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cell import MonomialCell
from .errors import NotLexSegment
from .hilburch import ParamMatrix, psi
from .poly import homogenize


@dataclass(frozen=True)
class HomIdealBasis:
    """Homogeneous F_0..F_t with in(F_i) = x^(t-i) y^(m_i)."""

    cell: MonomialCell
    polys: tuple


def psi_bar(A: ParamMatrix) -> HomIdealBasis:
    """The projective parametrization: homogenize each affine generator."""
    cell = A.cell
    if not cell.lex_segment():
        raise NotLexSegment(f"projective parametrization requires a lex-segment cell, got {cell}")
    return HomIdealBasis(cell, tuple(homogenize(f) for f in psi(A).polys))
