"""Test-only oracles: slow, definition-level checks that the test suite
compares the package against.  None of them is part of grobcell's API.

* `enumerate_lex_segment_cells` lists every lex-segment cell up to a
  colength, for exhaustive sweeps.
* `is_groebner` tests every S-polynomial, with no criterion.
* `homogenize_matrix` gives the weighted homogenization A^hom of A; the
  direct three-variable minors of X + A^hom check `psi_bar`.
* `z_regular`, `ideal_homogenize` and `ideal_dehomogenize` check the
  projective lift: homogenizing a DRL Groebner basis gives a homogeneous
  one, and z is a non-zero-divisor exactly when no minimal generator of
  the initial ideal involves z.
* `minimalize_homogeneous` counts a minimal homogeneous generating set per
  degree with Buchberger, the Groebner oracle for the Betti numbers.
* `is_homogeneous`, `NotHomogeneous` and `NotGroebner` serve the checks
  above.
"""

from __future__ import annotations

from grobcell.cell import MonomialCell
from grobcell.errors import ValidationError
from grobcell.groebner import buchberger, divide, initial_ideal, s_polynomial
from grobcell.hilburch import ParamMatrix
from grobcell.poly import Poly, dehomogenize, homogenize


class NotHomogeneous(ValidationError):
    code = "NOT_HOMOGENEOUS"


class NotGroebner(ValidationError):
    code = "NOT_GROEBNER"


def is_homogeneous(f: Poly) -> bool:
    return len({sum(m) for m in f.terms}) <= 1


def enumerate_lex_segment_cells(max_colength: int) -> list:
    """Every lex-segment cell with colength <= max_colength, in a fixed
    lexicographic discovery order."""
    out = []

    def rec(prefix, total):
        if len(prefix) >= 2:
            out.append(MonomialCell(tuple(prefix)))
        nxt = prefix[-1] + 1
        while total + nxt <= max_colength:
            prefix.append(nxt)
            rec(prefix, total + nxt)
            prefix.pop()
            nxt += 1

    rec([0], 0)
    return out


def is_groebner(polys) -> bool:
    """Check every S-polynomial reduces to zero (no shortcuts: this is the
    oracle-grade definition)."""
    G = [g for g in polys if not g.is_zero()]
    if not G:
        raise ValueError("need at least one nonzero polynomial")
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if not divide(s_polynomial(G[i], G[j]), G).remainder.is_zero():
                return False
    return True


def minimalize_homogeneous(gens) -> dict:
    """Per-degree counts of a minimal homogeneous generating set.

    Generators are eliminated degree-ascending: a candidate is redundant
    exactly when it reduces to zero against a Groebner basis of the ideal
    generated by everything kept so far.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero generator")
    for g in polys:
        if not is_homogeneous(g):
            raise NotHomogeneous(f"generator {g} is not homogeneous")

    order = sorted(range(len(polys)), key=lambda k: (polys[k].degree(), k))
    kept: list = []
    kept_gb: tuple = ()
    counts: dict = {}
    for k in order:
        g = polys[k]
        if kept:
            r = divide(g, kept_gb).remainder
            if r.is_zero():
                continue
        kept.append(g)
        kept_gb = buchberger(kept).elements
        d = int(g.degree())
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


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


def z_regular(polys) -> bool:
    """True iff no minimal generator of the initial ideal involves z,
    which is the monomial criterion for z being a non-zero-divisor."""
    polys = [F for F in polys if not F.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero polynomial")
    for F in polys:
        if F.nvars != 3:
            raise ValueError("expected polynomials in x, y and z")
        if not is_homogeneous(F):
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
        if not is_homogeneous(F):
            raise NotHomogeneous(f"{F} is not homogeneous")
    if not is_groebner(polys):
        raise NotGroebner("input basis fails the S-polynomial test")
    return [dehomogenize(F) for F in polys]
