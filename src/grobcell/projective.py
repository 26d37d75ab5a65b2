"""The lift to K[x, y, z]: the projective parametrization psi_bar.

Because the term order compares total degree first, a basis and its
homogenization share leading terms, so the projective basis is literally
the homogenization of the affine one; the tests check this against the
direct three-variable minors of X + A^hom.
"""

from __future__ import annotations

from .errors import NotLexSegment
from .hilburch import IdealBasis, ParamMatrix, psi
from .poly import homogenize


def psi_bar(A: ParamMatrix) -> IdealBasis:
    """The projective parametrization: homogenize each affine generator."""
    cell = A.cell
    if not cell.lex_segment():
        raise NotLexSegment(f"projective parametrization requires a lex-segment cell, got {cell}")
    return IdealBasis(cell, tuple(homogenize(f) for f in psi(A).polys))
