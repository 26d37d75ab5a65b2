"""Test-only oracles: slow, definition-level checks that the test suite
compares the package against.  None of them is part of grobcell's API.

* `enumerate_lex_segment_cells` lists every lex-segment cell up to a
  colength, for exhaustive sweeps.
* `embed` views a polynomial in a ring with more variables.
* `hb_matrix` writes out X + A over K[x, y]; `permutation_determinant`
  (Leibniz) and `maximal_minors` (Laplace) give the minors that `psi`
  and `psi_bar` must equal.
* `plain_failing_column` is the syzygy certificate of
  `verify_groebner_property` by its definition, on Poly values: the
  column `_failing_column` must name.
* `is_groebner` tests every S-polynomial, with no criterion.
* `plain_buchberger` is Buchberger's algorithm on Poly values, the
  reference `groebner.buchberger` on packed images must match exactly: one
  `divide` per S-pair and per tail reduction, pairs taken by the normal
  strategy, so on affine input in another order than the sugar strategy
  of `buchberger`, towards the same reduced basis.
* `homogenize_matrix` gives the weighted homogenization A^hom of A; the
  direct three-variable minors of X + A^hom check `psi_bar`.
* `dehomogenize`, `z_regular`, `ideal_homogenize` and
  `ideal_dehomogenize` check the projective lift: homogenizing a DRL
  Groebner basis gives a homogeneous one, and z is a non-zero-divisor
  exactly when no minimal generator of the initial ideal involves z.
* `minimalize_homogeneous` counts a minimal homogeneous generating set per
  degree with Buchberger, the Groebner oracle for the Betti numbers.
* `plain_format_poly` is the plain text renderer, one `drl_key` sort and
  one term at a time, that `format_poly` must match byte for byte.
* `is_homogeneous`, `NotHomogeneous` and `NotGroebner` serve the checks
  above.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from operator import getitem, mul

from grobcell.cell import MonomialCell
from grobcell.errors import ValidationError

from grobcell.groebner import (
    GroebnerBasis,
    buchberger,
    divide,
    initial_ideal,
    s_polynomial,
)
from grobcell.hilburch import ParamMatrix
from grobcell.poly import (
    VAR_NAMES,
    Poly,
    drl_key,
    homogenize,
    mono_divides,
    mono_lcm,
    mono_mul,
)


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


def embed(f: Poly, nvars: int) -> Poly:
    """View f in a larger ring: K[y] -> K[x,y] -> K[x,y,z]."""
    if nvars == f.nvars:
        return f
    if nvars < f.nvars:
        raise ValueError("can only embed into a larger ring")
    if f.nvars == 1:
        pad = lambda m: (0,) + m + (0,) * (nvars - 2)
    else:  # 2 -> 3
        pad = lambda m: m + (0,)
    return Poly(f.field, nvars, {pad(m): c for m, c in f.terms.items()})


def hb_matrix(A: ParamMatrix) -> list:
    """The full (t+1) x t matrix X + A over K[x, y], as nested lists."""
    cell, field = A.cell, A.field
    rows = [[embed(e, 2) for e in row] for row in A.entries]
    for i in range(1, cell.t + 1):
        rows[i - 1][i - 1] = rows[i - 1][i - 1] + Poly.monomial(field, 2, (0, cell.d_of(i)))
        rows[i][i - 1] = rows[i][i - 1] - Poly.monomial(field, 2, (1, 0))
    return rows


def permutation_determinant(rows) -> Poly:
    """The determinant of a square matrix of polynomials by Leibniz's
    expansion over all permutations."""
    one = Poly.constant(rows[0][0].field, rows[0][0].nvars, 1)
    acc = one - one
    for perm in itertools.permutations(range(len(rows))):
        prod = functools.reduce(mul, map(getitem, rows, perm), one)
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        acc = acc - prod if odd else acc + prod
    return acc


def maximal_minors(rows) -> list:
    """For a (t+1) x t matrix of polynomials: the t x t minor left when
    each row is deleted in turn, by Laplace expansion along the first
    column left, memoized by the rows kept."""
    t, one = len(rows[0]), Poly.constant(rows[0][0].field, rows[0][0].nvars, 1)

    @functools.cache
    def minor(kept):  # the rows kept, on the last len(kept) columns
        acc = one - one if kept else one
        for k, r in enumerate(kept):
            if rows[r][t - len(kept)]:
                term = rows[r][t - len(kept)] * minor(kept[:k] + kept[k + 1 :])
                acc = acc - term if k % 2 else acc + term
        return acc

    every = tuple(range(t + 1))
    return [minor(every[:r] + every[r + 1 :]) for r in range(t + 1)]


def critical_divisions(basis) -> list:
    """groebner.divide of each critical S-polynomial y^(d_j) f_(j-1) - x f_j
    of an IdealBasis, built from Poly values, by f_0..f_t."""
    cell, fs = basis.cell, basis.polys
    one = fs[0].field.one
    return [
        divide(fs[j - 1].mul_term((0, cell.d_of(j)), one) - fs[j].mul_term((1, 0), one), fs)
        for j in range(1, cell.t + 1)
    ]


def plain_failing_column(basis, A: ParamMatrix) -> int:
    """The column of X + A that fails the syzygy certificate of `basis`, by
    its definition: the column of the first slot, row-major, whose entry
    is past its raw bound, u(i, j) - 1 on and above the diagonal and
    u(i, j) below, with u(i, j) = i - j + m_j - m_(i-1); else the first
    column j with y^(d_j) f_(j-1) - x f_j + sum_i a_ij f_(i-1) != 0, built
    from Poly values; else 0."""
    m, fs, field = basis.cell.m, basis.polys, A.field
    for i, row in enumerate(A.entries, 1):
        for j, a in enumerate(row, 1):
            u = i - j + m[j] - m[i - 1]
            if a and a.degree() > (u - 1 if i <= j else u):
                return j
    x = Poly.monomial(field, 2, (1, 0))
    for j in range(1, len(m)):
        col = fs[j - 1] * Poly.monomial(field, 2, (0, m[j] - m[j - 1])) - x * fs[j]
        for i, row in enumerate(A.entries):
            col = col + embed(row[j - 1], 2) * fs[i]
        if col:
            return j
    return 0


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


def plain_buchberger(gens) -> GroebnerBasis:
    """Buchberger's algorithm with the coprimality and chain criteria,
    followed by interreduction to the unique reduced basis, all on Poly
    values."""
    G = [g.monic() for g in gens if not g.is_zero()]
    if not G:
        raise ValueError("need at least one nonzero generator")
    field = G[0].field
    for g in G:
        G[0]._check_compatible(g)

    # Normal strategy: the pair with the DRL-smallest lcm first, ties by
    # (i, j).  Leading monomials never change, so each key is final.
    pending: list = []

    def add_pairs(new):
        for k in range(new):
            lcm = mono_lcm(G[k].leading_monomial(), G[new].leading_monomial())
            heapq.heappush(pending, (drl_key(lcm), k, new))

    for new in range(1, len(G)):
        add_pairs(new)
    treated: set = set()
    while pending:
        _, i, j = heapq.heappop(pending)
        treated.add((i, j))
        li, lj = G[i].leading_monomial(), G[j].leading_monomial()
        lcm = mono_lcm(li, lj)
        if lcm == mono_mul(li, lj):
            continue  # coprime leading terms
        chained = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(G[k].leading_monomial(), lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in treated and pjk in treated:
                    chained = True
                    break
        if chained:
            continue
        r = divide(s_polynomial(G[i], G[j]), G).remainder
        if not r.is_zero():
            G.append(r.monic())
            add_pairs(len(G) - 1)

    # Minimalize: keep only elements whose leading monomial no other kept
    # leading monomial divides.
    G.sort(key=lambda g: drl_key(g.leading_monomial()))
    minimal = []
    for g in G:
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)

    # Tail-reduce to a fixpoint; leading monomials never change here.
    changed = True
    while changed:
        changed = False
        for idx, g in enumerate(minimal):
            others = minimal[:idx] + minimal[idx + 1 :]
            r = divide(g, others).remainder if others else g
            if r != g:
                minimal[idx] = r.monic()
                changed = True

    minimal.sort(key=lambda g: drl_key(g.leading_monomial()), reverse=True)
    return GroebnerBasis(tuple(minimal), field)


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
            row.append(homogenize(embed(a, 2)).mul_term((0, 0, zpow), field.one))
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


def dehomogenize(F: Poly) -> Poly:
    """Substitute z = 1 into a polynomial in K[x,y,z]."""
    if F.nvars != 3:
        raise ValueError("dehomogenization takes a polynomial in x, y and z")
    return Poly.from_terms(F.field, 2, (((a, b), c) for (a, b, _), c in F.terms.items()))


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


def plain_format_poly(p: Poly) -> str:
    """Render p DRL-descending in the grammar parse_poly accepts."""
    if p.is_zero():
        return "0"
    names = VAR_NAMES[p.nvars]
    out = []
    for mono in sorted(p.terms, key=drl_key, reverse=True):
        factors = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e)
        c = str(p.terms[mono])
        if not factors:
            term = c
        elif c == "1":
            term = factors
        elif c == "-1":
            term = "-" + factors
        else:
            term = c + "*" + factors
        out.append(term if term[0] == "-" else "+" + term)
    text = "".join(out)
    return text[1:] if text[0] == "+" else text
