"""Command-line surface: deterministic, scriptable access to every
operation.

Exit codes: 0 on success, 2 for input or validation problems, 3 for
internal defects.  Results go to stdout, diagnostics to stderr: one
``warning: <message>`` line per distinct warning, then any error.  With
``--json`` every command emits a single JSON document; otherwise a compact
human-readable rendering of the same data.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

from . import betti as betti_mod
from . import cell as cell_mod
from .canonical import canonical_matrix, canonicalize
from .errors import BadMVector, InternalError, InternalReductionFailure, ValidationError
from .field import GF, QQ
from .hilburch import (
    _failing_column,
    param_matrix_from_json,
    param_matrix_to_json,
    psi,
    sample,
    verify_groebner_property,
)
from .poly import format_poly, parse_poly
from .projective import psi_bar

# The most trials of one `sample --trials` run.  Its report keeps a record
# per trial, 1.1-1.3 KB of traced peak memory each (tracemalloc, 1,000 and
# 4,000 trials on I0(m=0,2,3,5) over GF(10007)): about 13 MB at the cap.
MAX_TRIALS = 10_000


def _parse_m(text: str):
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise BadMVector(f"cannot parse m-vector {text!r}") from None
    return cell_mod.make_cell(values)


def _parse_beta(text: str) -> dict:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        j, _, u = piece.partition("=")
        try:
            out[int(j)] = int(u)
        except ValueError:
            raise ValueError(f"cannot parse --beta entry {piece!r}") from None
    if not out:
        raise ValueError("--beta needs at least one j=u entry")
    return out


def _field_from_args(args):
    """Resolve --field/--prime; None means 'caller picks a default'."""
    kind = getattr(args, "field", None)
    prime = getattr(args, "prime", None)
    if kind == "qq":
        if prime is not None:
            raise ValueError("--prime only makes sense with --field fp")
        return QQ
    if kind == "fp" or (kind is None and prime is not None):
        if prime is None:
            raise ValueError("--field fp requires --prime")
        return GF(prime)
    return None


def _load_matrix(args):
    """The --matrix file, checked against --m when that is given."""
    with open(args.matrix, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    A = param_matrix_from_json(obj, field=_field_from_args(args))
    if args.m is not None and _parse_m(args.m) != A.cell:
        raise ValidationError(
            f"--m {args.m} disagrees with the matrix file's m-vector {list(A.cell.m)}"
        )
    return A


def _load_gens(path: str, field):
    polys = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            polys.append(parse_poly(line, field, 2))
    if not polys:
        raise ValueError(f"no polynomials found in {path}")
    return polys


def _emit_json(out, obj):
    out.write(json.dumps(obj, indent=2, sort_keys=True))
    out.write("\n")


def _matrix_lines(rows):
    cells = [[str(e) for e in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    return [
        "[ " + "  ".join(s.rjust(w) for s, w in zip(row, widths)) + " ]"
        for row in cells
    ]


def _cell_report(cell):
    h = cell_mod.hilbert_function(cell)
    deg1, zeros = cell_mod.below_diagonal_stats(cell)
    big, jumps = cell_mod.special_indices(cell)
    n = cell_mod.dimension(cell)  # the parameter count, on every cell
    report = {
        "m": list(cell.m),
        "t": cell.t,
        "d": list(cell.d),
        "lex_segment": cell.lex_segment(),
        "colength": cell.colength(),
        "hilbert_function": list(h),
        "index_base": 0,
        "degree_matrix": [list(r) for r in cell_mod.degree_matrix(cell).rows],
        "bound_matrix": [list(r) for r in cell_mod.bound_matrix(cell).rows],
        "special_i": list(big),
        "special_j": list(jumps),
        "parameter_count": n,
        "dimension": n,
        "below_diagonal_degree1_slots": deg1,
        "below_diagonal_zero_slots": zeros,
    }
    if cell.lex_segment():
        report["lex_betti"] = {str(k): v for k, v in cell_mod.lex_betti(cell).items()}
        if cell.colength() >= 2:
            lo, hi = cell_mod.dimension_bounds(cell)
            report["dimension_bounds"] = [lo, hi]
    return report


def _cmd_cell(args, out):
    report = _cell_report(_parse_m(args.m))
    if args.json:
        _emit_json(out, report)
        return 0
    out.write(f"m          = ({', '.join(map(str, report['m']))})\n")
    out.write(f"t          = {report['t']}\n")
    out.write(f"d          = ({', '.join(map(str, report['d']))})\n")
    out.write(f"lex-segment: {'yes' if report['lex_segment'] else 'no'}\n")
    out.write(f"colength   = {report['colength']}\n")
    out.write(f"h          = ({', '.join(map(str, report['hilbert_function']))})\n")
    out.write("bound matrix:\n")
    for line in _matrix_lines(report["bound_matrix"]):
        out.write("  " + line + "\n")
    out.write(f"special I  = {{{', '.join(map(str, report['special_i']))}}}\n")
    out.write(f"special J  = {{{', '.join(map(str, report['special_j']))}}}\n")
    out.write(f"N          = {report['parameter_count']}\n")
    if "dimension_bounds" in report:
        lo, hi = report["dimension_bounds"]
        out.write(f"bounds     : {lo} <= N <= {hi}\n")
    out.write(
        f"below diagonal: {report['below_diagonal_degree1_slots']} degree-1 slots, "
        f"{report['below_diagonal_zero_slots']} forced zeros\n"
    )
    return 0


def _cmd_dim(args, out):
    cell = _parse_m(args.m)
    n = cell_mod.dimension(cell)
    report = {"m": list(cell.m), "dimension": n}
    if cell.lex_segment() and cell.colength() >= 2:
        lo, hi = cell_mod.dimension_bounds(cell)
        report["dimension_bounds"] = [lo, hi]
    if args.json:
        _emit_json(out, report)
    else:
        out.write(f"dim V(I0) = {n}\n")
        if "dimension_bounds" in report:
            lo, hi = report["dimension_bounds"]
            out.write(f"bounds    : {lo} <= dim <= {hi}\n")
    return 0


def _cmd_sample(args, out):
    cell = _parse_m(args.m)
    field = _field_from_args(args) or QQ
    if args.trials is None:
        A = sample(cell, field, args.seed)
        if args.json:
            _emit_json(out, param_matrix_to_json(A))
        else:
            for line in _matrix_lines([[format_poly(e) for e in r] for r in A.entries]):
                out.write(line + "\n")
        return 0

    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    records = []
    failures = 0
    for k in range(args.trials):
        trial_seed = args.seed ^ k
        A = sample(cell, field, trial_seed)
        basis = psi(A)
        try:  # the critical divisions of canonical_matrix are the certificate
            certified, roundtrip = True, canonical_matrix(basis)[0] == A
        except InternalReductionFailure:
            certified = roundtrip = False
        if not roundtrip:
            failures += 1
        records.append(
            {
                "trial": k,
                "seed": trial_seed,
                "groebner_certified": certified,
                "roundtrip_exact": roundtrip,
            }
        )
    report = {"trials": args.trials, "failures": failures, "results": records}
    if args.json:
        _emit_json(out, report)
    else:
        for r in records:
            status = "ok" if r["groebner_certified"] and r["roundtrip_exact"] else "FAIL"
            out.write(f"trial {r['trial']} (seed {r['seed']}): {status}\n")
        out.write(f"{args.trials} trials, {failures} failures\n")
    return 0


def _cmd_psi(args, out):
    A = _load_matrix(args)
    if args.homogeneous:
        polys = list(psi_bar(A).polys)
        key = "F"
    else:
        polys = list(psi(A).polys)
        key = "f"
    if args.json:
        _emit_json(out, {key: [format_poly(p) for p in polys]})
    else:
        for p in polys:
            out.write(format_poly(p) + "\n")
    return 0


def _cmd_verify(args, out):
    A = _load_matrix(args)
    basis = psi(A)
    if not verify_groebner_property(basis, A):
        raise InternalError(
            f"column {_failing_column(basis, A)} of X+A is not a syzygy of psi(A) "
            "within its raw bounds"
        )
    t = A.cell.t
    if args.json:
        _emit_json(out, {"ok": True, "s_pairs": t, "m": list(A.cell.m)})
    else:
        out.write(f"OK: in(I_t(X+A)) = I0; GB certified via {t} S-pairs\n")
    return 0


def _cmd_canonicalize(args, out):
    field = _field_from_args(args) or QQ
    gens = _load_gens(args.gens, field)
    cell = _parse_m(args.m) if args.m is not None else None
    A, basis = canonicalize(gens, cell)
    regenerated = [format_poly(p) for p in basis.polys]
    report = {"matrix": param_matrix_to_json(A), "generators": regenerated}
    if args.json:
        _emit_json(out, report)
    else:
        out.write("A =\n")
        for line in _matrix_lines([[format_poly(e) for e in r] for r in A.entries]):
            out.write("  " + line + "\n")
        out.write("generators:\n")
        for g in regenerated:
            out.write("  " + g + "\n")
    return 0


def _cmd_betti(args, out):
    A = _load_matrix(args)
    table = betti_mod.betti_numbers(A)
    per_degree = {
        str(j): table.beta1.get(j, 0) * u for j, u in sorted(table.beta0.items())
    }
    report = {
        "beta0": {str(k): v for k, v in sorted(table.beta0.items())},
        "beta1": {str(k): v for k, v in sorted(table.beta1.items())},
        "lex_baseline": {str(k): v for k, v in sorted(table.baseline.items())},
        "per_degree_codim": per_degree,
        "codim_total": table.codim_total(),
    }
    if args.json:
        _emit_json(out, report)
    else:
        out.write("deg  beta0  beta1  lex_beta0  codim\n")
        degrees = sorted(
            set(table.beta0) | set(table.beta1) | set(table.baseline)
        )
        for j in degrees:
            out.write(
                f"{j:>3}  {table.beta0.get(j, 0):>5}  {table.beta1.get(j, 0):>5}  "
                f"{table.baseline.get(j, 0):>9}  "
                f"{table.beta1.get(j, 0) * table.beta0.get(j, 0):>5}\n"
            )
        out.write(f"total codim = {table.codim_total()}\n")
    return 0


def _cmd_strata_codim(args, out):
    cell = _parse_m(args.m)
    beta = _parse_beta(args.beta)
    per_degree = {str(j): betti_mod.strata_codim(cell, j, u) for j, u in sorted(beta.items())}
    total = betti_mod.strata_codim_total(cell, beta)
    report = {"per_degree_codim": per_degree, "codim_total": total}
    if args.json:
        _emit_json(out, report)
    else:
        for j, c in sorted(per_degree.items(), key=lambda kv: int(kv[0])):
            out.write(f"degree {j}: codim {c}\n")
        out.write(f"total codim = {total}\n")
    return 0


@functools.cache  # built on first use, then shared: parsing never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grobcell",
        description=(
            "Parametrize Groebner cells of Artinian ideals in K[x,y] by "
            "canonical Hilbert-Burch matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_flags(p):
        p.add_argument("--field", choices=("qq", "fp"), default=None,
                       help="coefficient field (default qq)")
        p.add_argument("--prime", type=int, default=None,
                       help="characteristic for --field fp")

    p = sub.add_parser("cell", help="invariants of the monomial cell")
    p.add_argument("--m", required=True, help="comma-separated m-vector, e.g. 0,5,7,11")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser("dim", help="dimension of the cell with bounds")
    p.add_argument("--m", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("sample", help="draw a random admissible matrix")
    p.add_argument("--m", required=True)
    add_field_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=None,
                   help="run this many sample/verify/canonicalize trials "
                   f"(at most {MAX_TRIALS})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("psi", help="generators from a parameter matrix")
    p.add_argument("--m", default=None)
    p.add_argument("--matrix", required=True, help="parameter matrix JSON file")
    add_field_flags(p)
    p.add_argument("--homogeneous", action="store_true",
                   help="emit the homogenized generators in x, y, z")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser(
        "verify",
        help="certify the matrix presents its cell",
        description=(
            "Compute psi(A) and certify it is a Groebner basis whose initial "
            "ideal is I0, without dividing: each column of X+A is checked to be "
            "a syzygy of psi(A) within the degree bounds that make it an lcm "
            "representation of one of the t critical S-pairs."
        ),
    )
    p.add_argument("--m", default=None)
    p.add_argument("--matrix", required=True)
    add_field_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("canonicalize", help="canonical matrix of an ideal")
    p.add_argument("--gens", required=True,
                   help="file with one polynomial per line ('#' comments)")
    p.add_argument("--m", default=None)
    add_field_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("betti", help="graded Betti numbers of the ideal")
    p.add_argument("--m", default=None)
    p.add_argument("--matrix", required=True)
    add_field_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("strata-codim", help="codimension of a Betti stratum")
    p.add_argument("--m", required=True)
    p.add_argument("--beta", required=True, help="j=u[,j=u...]")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_strata_codim)

    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                return args.func(args, out)
            finally:  # each distinct warning once, before any error line
                for message in dict.fromkeys(str(w.message) for w in caught):
                    err.write(f"warning: {message}\n")
    except ValidationError as exc:
        err.write(f"error[{exc.code}]: {exc}\n")
        return 2
    except InternalError as exc:
        err.write(f"defect[{exc.code}]: {exc}\n")
        return 3
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
