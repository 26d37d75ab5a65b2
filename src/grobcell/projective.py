"""The lift to K[x, y, z]: weighted matrix homogenization, the projective
parametrization, homogenization/dehomogenization of Groebner bases, and the
monomial criterion for z being a non-zero-divisor.

Because the term order compares total degree first, a basis and its
homogenization share leading terms, so the projective basis is literally
the homogenization of the affine one; the tests check this against the
direct three-variable minors of X + A^hom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cell import MonomialCell
from .errors import NotGroebner, NotHomogeneous, NotLexSegment
from .groebner import buchberger, initial_ideal, is_groebner
from .hilburch import ParamMatrix, psi
from .poly import Poly, dehomogenize, homogenize


def homogenize_matrix(A: ParamMatrix) -> tuple:
    """Entry (i, j) becomes z^(u_(i,j) - deg a) * homogenized a, making the
    matrix homogeneous with the cell's degree pattern."""
    cell, field = A.cell, A.field
    t = cell.t
    out = []
    for i in range(1, t + 2):
        row = []
        for j in range(1, t + 1):
            a = A.entry(i, j)
            if a.is_zero():
                row.append(Poly.zero(field, 3))
                continue
            zpow = cell.u(i, j) - int(a.degree())
            row.append(homogenize(a.embed(2)).mul_term((0, 0, zpow), field.one))
        out.append(tuple(row))
    return tuple(out)


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


def z_regular(polys) -> bool:
    """True iff no minimal generator of the initial ideal involves z,
    which is the monomial criterion for z being a non-zero-divisor."""
    polys = [F for F in polys if not F.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero polynomial")
    for F in polys:
        if F.nvars != 3:
            raise ValueError("expected polynomials in x, y and z")
        if not F.is_homogeneous():
            raise NotHomogeneous(f"{F} is not homogeneous")
    gb = buchberger(polys)
    return all(mono[2] == 0 for mono in initial_ideal(gb))


def ideal_homogenize(polys) -> list:
    """Homogenize a Groebner basis element by element; the result is again
    a Groebner basis because the order is degree-compatible."""
    polys = [f for f in polys if not f.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero polynomial")
    if not is_groebner(polys):
        raise NotGroebner("input basis fails the S-polynomial test")
    return [homogenize(f) for f in polys]


def ideal_dehomogenize(polys) -> list:
    """Set z = 1 in a homogeneous Groebner basis; again a Groebner basis."""
    polys = [F for F in polys if not F.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero polynomial")
    for F in polys:
        if not F.is_homogeneous():
            raise NotHomogeneous(f"{F} is not homogeneous")
    if not is_groebner(polys):
        raise NotGroebner("input basis fails the S-polynomial test")
    return [dehomogenize(F) for F in polys]
