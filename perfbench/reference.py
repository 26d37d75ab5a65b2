"""Output checks that share no code with grobcell.

Everything here reads the CLI's text output with its own parser and its own
arithmetic, so a defect in the code being timed cannot also hide in the
reference.  The checks are:

* point evaluation: the generators printed by ``psi`` (and ``canonicalize``)
  must equal the signed maximal minors of ``X + A`` at random points modulo
  a large prime (Schwartz-Zippel), for every rung;
* sympy, for the rungs with ``t <= 8``: the exact minors from sympy's
  determinant over ``QQ[x, y]`` and the leading monomials of
  ``sympy.groebner(..., order="grevlex")``;
* plain bookkeeping identities for ``verify``, ``betti`` and ``psi
  --homogeneous``.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

# A Mersenne prime far above any coefficient denominator the workloads make.
P = (1 << 61) - 1
SYMPY_MAX_T = 8

_VARS = "xyz"
_TERM = re.compile(r"([+-]?)([^+-]+)")


def parse_poly(text: str, nvars: int) -> dict:
    """``"x^2*y-7/2*z"`` -> ``{(2, 1, 0): 1, (0, 0, 1): -7/2}`` (exponent
    tuples over x, y, z, truncated to ``nvars``; for ``nvars == 1`` the only
    variable is y)."""
    names = "y" if nvars == 1 else _VARS[:nvars]
    out: dict = {}
    if text.strip() == "0":
        return out
    pos = 0
    for match in _TERM.finditer(text):
        if match.start() != pos:
            raise ValueError(f"cannot parse {text!r}")
        pos = match.end()
        sign, body = match.groups()
        coeff = Fraction(-1 if sign == "-" else 1)
        expts = [0] * nvars
        for factor in body.split("*"):
            name, _, exp = factor.partition("^")
            if name in names:
                expts[names.index(name)] += int(exp) if exp else 1
            else:
                coeff *= Fraction(factor)
        mono = tuple(expts)
        if mono in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[mono] = coeff
    if pos != len(text):
        raise ValueError(f"cannot parse {text!r}")
    return out


def _mod(c: Fraction) -> int:
    return c.numerator % P * pow(c.denominator % P, -1, P) % P


def _eval(poly: dict, point: tuple) -> int:
    acc = 0
    for mono, c in poly.items():
        v = _mod(c)
        for base, e in zip(point, mono):
            v = v * pow(base, e, P) % P
        acc = (acc + v) % P
    return acc


def _det_mod(rows: list) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col] % P
        inv = pow(m[col][col], -1, P)
        for r in range(col + 1, n):
            f = m[r][col] * inv % P
            if f:
                for c in range(col, n):
                    m[r][c] = (m[r][c] - f * m[col][c]) % P
    return det % P


def hb_entries(m: tuple, entry_strings) -> list:
    """``X + A`` as a list of rows of term dicts in (x, y)."""
    t = len(m) - 1
    rows = []
    for r in range(t + 1):
        row = []
        for c in range(t):
            a = parse_poly(entry_strings[r][c], 1)
            e = {(0, k[0]): v for k, v in a.items()}
            if r == c:
                mono = (0, m[c + 1] - m[c])
                e[mono] = e.get(mono, 0) + 1
            elif r == c + 1:
                e[(1, 0)] = e.get((1, 0), 0) - 1
            row.append({k: v for k, v in e.items() if v})
        rows.append(row)
    return rows


def check_minors_at_points(m: tuple, entry_strings, generators, rng: random.Random, points=2):
    """Return an error string, or None when every printed generator equals
    the signed maximal minor of ``X + A`` at ``points`` random points."""
    t = len(m) - 1
    if len(generators) != t + 1:
        return f"expected {t + 1} generators, got {len(generators)}"
    rows = hb_entries(m, entry_strings)
    fs = [parse_poly(g, 2) for g in generators]
    for _ in range(points):
        pt = (rng.randrange(1, P), rng.randrange(1, P))
        num = [[_eval(e, pt) for e in row] for row in rows]
        for i, f in enumerate(fs):
            minor = _det_mod(num[:i] + num[i + 1 :])
            want = minor if (t - i) % 2 == 0 else (-minor) % P
            if _eval(f, pt) != want:
                return f"generator {i} is not the signed maximal minor of X+A"
    return None


def staircase(m: tuple) -> list:
    """Minimal generators x^(t-i) y^(m_i) of I0, as exponent pairs."""
    t = len(m) - 1
    return [(t - i, m[i]) for i in range(t + 1) if i == t or m[i + 1] > m[i]]


def check_with_sympy(m: tuple, entry_strings, generators):
    """Exact minors and the grevlex initial ideal, both from sympy."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    x, y = sympy.symbols("x y")
    ring = sympy.QQ[x, y]
    t = len(m) - 1

    def to_ring(terms):
        return ring.from_sympy(
            sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * x**a * y**b
                        for (a, b), c in terms.items()])
        )

    rows = [[to_ring(e) for e in row] for row in hb_entries(m, entry_strings)]
    fs = [to_ring(parse_poly(g, 2)) for g in generators]
    for i, f in enumerate(fs):
        minor = DomainMatrix(rows[:i] + rows[i + 1 :], (t, t), ring).det()
        if f != (minor if (t - i) % 2 == 0 else -minor):
            return f"generator {i} differs from sympy's maximal minor"
    gb = sympy.groebner([ring.to_sympy(f) for f in fs], x, y, order="grevlex", domain="QQ")
    leading = sorted(
        sympy.Poly(g, x, y).monoms(order="grevlex")[0] for g in gb.exprs
    )
    if leading != sorted(staircase(m)):
        return f"sympy initial ideal {leading} is not the staircase of {m}"
    return None


def check_homogeneous(generators, homogeneous):
    """Each F_i is homogeneous of degree deg f_i and F_i(x, y, 1) = f_i."""
    if len(generators) != len(homogeneous):
        return "psi --homogeneous returned a different number of generators"
    for i, (g, h) in enumerate(zip(generators, homogeneous)):
        f, F = parse_poly(g, 2), parse_poly(h, 3)
        deg = max(sum(k) for k in f)
        if any(sum(k) != deg for k in F):
            return f"F_{i} is not homogeneous of degree {deg}"
        if {k[:2]: c for k, c in F.items()} != f:
            return f"F_{i} does not dehomogenize to f_{i}"
    return None


def check_betti(m: tuple, report: dict):
    """Hilbert-Burch bookkeeping: the lex baseline counts the staircase
    generator degrees, sum(beta0) - sum(beta1) = 1, every beta0 stays at or
    below the baseline and the codimension is sum beta1_j * beta0_j."""
    t = len(m) - 1
    base: dict = {}
    for i in range(t + 1):
        d = t - i + m[i]
        base[str(d)] = base.get(str(d), 0) + 1
    b0, b1 = report["beta0"], report["beta1"]
    if report["lex_baseline"] != base:
        return f"lex baseline {report['lex_baseline']} != {base}"
    if sum(b0.values()) - sum(b1.values()) != 1:
        return "beta0 and beta1 totals do not differ by one"
    if any(v > base.get(j, 0) for j, v in b0.items()):
        return "a beta0 entry exceeds the lex baseline"
    if report["codim_total"] != sum(b1.get(j, 0) * u for j, u in b0.items()):
        return "codim_total is not sum beta1_j * beta0_j"
    return None
