import io
import json
import os
import subprocess
import sys

import pytest

import grobcell.canonical
from grobcell import IdealBasis, Poly, psi
from grobcell.cli import build_parser, run

from conftest import (
    EX3_A_ROWS,
    EX3_GENS,
    EX3_REGENERATED,
    M_EX3,
    stale_basis_move,
    wrong_lead_move,
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def ex3_matrix_file(tmp_path):
    path = tmp_path / "A.json"
    path.write_text(
        json.dumps(
            {
                "m": list(M_EX3),
                "index_base": 1,
                "field": {"kind": "rationals"},
                "entries": [list(r) for r in EX3_A_ROWS],
            }
        )
    )
    return str(path)


@pytest.fixture
def ex3_gens_file(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# worked example generators\n" + "\n".join(EX3_GENS) + "\n")
    return str(path)


def test_cell_json():
    code, out, err = invoke(["cell", "--m", "0,5,7,11", "--json"])
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["hilbert_function"] == [1, 2, 3, 3, 3, 3, 3, 2, 1, 1, 1]
    assert obj["bound_matrix"] == [[4, 4, 4], [1, 1, 1], [0, 1, 3], [-3, -2, 1]]
    assert obj["special_i"] == [1, 3] and obj["special_j"] == [1, 2, 3]
    assert obj["parameter_count"] == 30 and obj["dimension"] == 30


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cell_human_mode():
    code, out, err = invoke(["cell", "--m", "0,5,7,11"])
    assert code == 0
    assert "h          = (1, 2, 3, 3, 3, 3, 3, 2, 1, 1, 1)" in out
    assert "N          = 30" in out


def test_dim_command():
    code, out, _ = invoke(["dim", "--m", "0,3,4,5,10,11,12,14,15,16,19,20,21", "--json"])
    assert code == 0
    assert json.loads(out)["dimension"] == 195


def test_dim_rejects_non_lex():
    code, out, err = invoke(["dim", "--m", "0,2,2,5"])
    assert code == 2 and "NOT_LEXSEGMENT" in err


def test_bad_m_vector_exit_code():
    code, _, err = invoke(["cell", "--m", "1,2"])
    assert code == 2 and "BAD_M_VECTOR" in err
    code, _, err = invoke(["cell", "--m", "zebra"])
    assert code == 2 and "BAD_M_VECTOR" in err


def test_sample_matrix_json_feeds_psi(tmp_path):
    code, out, _ = invoke(
        ["sample", "--m", "0,2,3,5", "--field", "fp", "--prime", "10007",
         "--seed", "11", "--json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == [0, 2, 3, 5] and obj["index_base"] == 1
    path = tmp_path / "A.json"
    path.write_text(out)
    code, out2, _ = invoke(["psi", "--matrix", str(path), "--json"])
    assert code == 0
    polys = json.loads(out2)["f"]
    assert len(polys) == 4 and polys[0].startswith("x^3")


def test_sample_requires_seed():
    with pytest.raises(SystemExit):
        invoke(["sample", "--m", "0,1", "--field", "fp", "--prime", "5"])


def test_sample_trials():
    code, out, _ = invoke(
        ["sample", "--m", "0,2,3", "--field", "fp", "--prime", "101",
         "--seed", "3", "--trials", "4", "--json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["trials"] == 4 and obj["failures"] == 0
    assert [r["seed"] for r in obj["results"]] == [3 ^ 0, 3 ^ 1, 3 ^ 2, 3 ^ 3]


def test_sample_trials_report_failed_certificate(monkeypatch):
    # a basis that fails the certificate is a failed trial, not bad input;
    # x added to f_t keeps every leading term but breaks the Groebner property
    def broken_psi(A):
        fs = psi(A).polys
        x = Poly.monomial(A.field, 2, (1, 0))
        return IdealBasis(A.cell, fs[:-1] + (fs[-1] + x,))

    monkeypatch.setattr("grobcell.cli.psi", broken_psi)
    code, out, err = invoke(
        ["sample", "--m", "0,2,3", "--field", "fp", "--prime", "101",
         "--seed", "3", "--trials", "2", "--json"]
    )
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["failures"] == 2
    assert all(
        not r["groebner_certified"] and not r["roundtrip_exact"] for r in obj["results"]
    )


def test_sample_trials_non_univariate_quotient_is_a_defect(monkeypatch):
    # only a nonzero critical remainder makes a trial uncertified; a quotient
    # with an x term is a defect and exits 3
    real = grobcell.canonical.critical_reductions

    def with_x_quotient(basis):
        packed, reductions = real(basis)
        x = packed.packing.pack((1, 0))
        return packed, (([{**q[0], x: 1}] + q[1:], rem) for q, rem in reductions)

    monkeypatch.setattr("grobcell.canonical.critical_reductions", with_x_quotient)
    code, out, err = invoke(
        ["sample", "--m", "0,2,3", "--field", "fp", "--prime", "101",
         "--seed", "3", "--trials", "2", "--json"]
    )
    assert code == 3 and out == ""
    assert err.startswith("defect[INTERNAL]: syzygy quotient on f_0 is not univariate")


def test_sample_rejects_negative_trials():
    code, out, err = invoke(["sample", "--m", "0,2,3", "--seed", "3", "--trials", "-1"])
    assert code == 2 and out == ""
    assert err == "error: --trials must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "document, message",
    [
        ('{"m": [0, 2], "entries": 5}', "'entries' must be a list of rows"),
        ("[1, 2]", "a parameter matrix must be a JSON object"),
        ('{"m": [0, 2], "entries": [["0"], [3]]}', "'entries' must be a list of rows"),
        (
            '{"m": [0, 2], "entries": [["0"], ["0"]], "field": "qq"}',
            "'field' must be a JSON object",
        ),
        ('{"m": "0,2", "entries": [["0"], ["0"]]}', "'m' must be a list of integers"),
        (
            '{"m": [0, 2], "entries": [["0"], ["0"]],'
            ' "field": {"kind": "prime_field", "prime": [7]}}',
            "'prime' must be an integer",
        ),
    ],
    ids=[
        "entries-not-list",
        "not-object",
        "entry-not-string",
        "field-not-object",
        "m-string",
        "prime-not-int",
    ],
)
def test_malformed_matrix_json(tmp_path, document, message):
    path = tmp_path / "A.json"
    path.write_text(document)
    code, out, err = invoke(["psi", "--matrix", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: " + message) and "Traceback" not in err


@pytest.mark.parametrize("field_flags", [[], ["--field", "fp", "--prime", "7"]], ids=["qq", "fp"])
@pytest.mark.parametrize("command", ["canonicalize", "psi"])
def test_zero_denominator_is_input_error(tmp_path, command, field_flags):
    if command == "canonicalize":
        path = tmp_path / "gens.txt"
        path.write_text("x^2+1/0*y\ny^3\n")
        argv = ["canonicalize", "--gens", str(path)]
    else:
        path = tmp_path / "A.json"
        path.write_text(json.dumps({"m": [0, 2], "entries": [["0"], ["1/0"]]}))
        argv = ["psi", "--matrix", str(path)]
    code, out, err = invoke(argv + field_flags)
    assert code == 2 and out == ""
    assert err == "error[DIVISION_BY_ZERO]: zero denominator in '1/0'\n"


def test_psi_rejects_matrix_past_minor_cap(tmp_path):
    # t = 1100 columns, colength 1100: refused as input, and at once
    t = 1100
    path = tmp_path / "A.json"
    path.write_text(
        json.dumps({"m": [0] + [1] * t, "entries": [["0"] * t for _ in range(t + 1)]})
    )
    code, out, err = invoke(["psi", "--matrix", str(path), "--json"])
    assert code == 2 and out == ""
    assert err == "error[MATRIX_TOO_LARGE]: colength 1100 exceeds the cap of 300\n"


@pytest.mark.parametrize("command", ["psi", "verify"])
def test_wide_matrix_refused_before_its_entries_are_parsed(tmp_path, command):
    # the cap is checked on m alone, so an entry that would not parse is
    # never reached
    t = 301
    path = tmp_path / "A.json"
    path.write_text(json.dumps({"m": [0] + [1] * t, "entries": [["y^^"]]}))
    code, out, err = invoke([command, "--matrix", str(path)])
    assert code == 2 and out == ""
    assert err == "error[MATRIX_TOO_LARGE]: colength 301 exceeds the cap of 300\n"


def test_canonicalize_rejects_cell_past_minor_cap(tmp_path):
    # x^1200, y has in(gb) of the cell m = (0, 1, ..., 1), colength 1200
    path = tmp_path / "gens.txt"
    path.write_text("x^1200\ny\n")
    code, out, err = invoke(["canonicalize", "--gens", str(path)])
    assert code == 2 and out == ""
    assert err == "error[MATRIX_TOO_LARGE]: colength at least 1200 exceeds the cap of 300\n"


def test_canonicalize_refuses_huge_x_power_before_building_its_cell(tmp_path):
    # the bound t + m_t - 1 on the colength is read off in(gb) itself; a
    # cell with t = 10^12 would need an m-vector of 10^12 + 1 entries
    path = tmp_path / "gens.txt"
    path.write_text("x^1000000000000\ny\n")
    code, out, err = invoke(["canonicalize", "--gens", str(path)])
    assert code == 2 and out == ""
    assert err == (
        "error[MATRIX_TOO_LARGE]: colength at least 1000000000000 exceeds the cap of 300\n"
    )


HUGE = 10**12


@pytest.mark.parametrize(
    "command", ["psi", "verify", "betti", "cell", "dim", "sample", "strata-codim", "canonicalize"]
)
def test_every_command_refuses_a_huge_exponent(tmp_path, command):
    # one gate where cells are made: each command refuses the cell of
    # x, y^(10^12) before it builds y^(10^12) densely or walks its staircase
    if command in ("psi", "verify", "betti"):
        path = tmp_path / "A.json"
        path.write_text(json.dumps({"m": [0, HUGE], "entries": [["0"], ["0"]]}))
        argv = [command, "--matrix", str(path)]
    elif command == "canonicalize":
        path = tmp_path / "gens.txt"
        path.write_text(f"x\ny^{HUGE}\n")
        argv = [command, "--gens", str(path)]
    else:
        extra = {"sample": ["--seed", "1"], "strata-codim": ["--beta", "1=1"]}
        argv = [command, "--m", f"0,{HUGE}"] + extra.get(command, [])
    code, out, err = invoke(argv)
    least = "at least " if command == "canonicalize" else ""
    assert code == 2 and out == ""
    assert err == f"error[MATRIX_TOO_LARGE]: colength {least}{HUGE} exceeds the cap of 300\n"


def test_canonicalize_malformed_generator_line(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("x^3\nx^2+\ny^3\n")
    code, out, err = invoke(["canonicalize", "--gens", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_psi_homogeneous(ex3_matrix_file):
    code, out, _ = invoke(["psi", "--matrix", ex3_matrix_file, "--homogeneous"])
    assert code == 0
    first = out.splitlines()[0]
    assert first == "x^3-x^2*y-2*x*y^2+2*y^3-2*x^2*z+x*y*z+y^2*z-x*z^2+2*y*z^2-2*z^3"


@pytest.mark.parametrize("command", ["psi", "verify", "betti"])
def test_m_mismatch(command, ex3_matrix_file):
    code, out, err = invoke([command, "--m", "0,5,7,11", "--matrix", ex3_matrix_file])
    assert code == 2 and out == ""
    assert err == (
        "error[VALIDATION]: --m 0,5,7,11 disagrees with the matrix file's "
        "m-vector [0, 2, 3, 5]\n"
    )


def test_verify_golden_line(ex3_matrix_file):
    code, out, _ = invoke(["verify", "--m", "0,2,3,5", "--matrix", ex3_matrix_file])
    assert code == 0
    assert out == "OK: in(I_t(X+A)) = I0; GB certified via 3 S-pairs\n"


def test_verify_json_golden(ex3_matrix_file):
    code, out, err = invoke(["verify", "--matrix", ex3_matrix_file, "--json"])
    assert code == 0 and err == ""
    assert out == (
        '{\n  "m": [\n    0,\n    2,\n    3,\n    5\n  ],\n  "ok": true,\n  "s_pairs": 3\n}\n'
    )


def test_verify_defect_names_the_failing_column(monkeypatch, ex3_matrix_file):
    # x in the tail of f_t keeps every leading term but breaks each column
    # with a nonzero entry in row t+1; in the worked example a_41 = -1
    def broken_psi(A):
        fs = psi(A).polys
        x = Poly.monomial(A.field, 2, (1, 0))
        return IdealBasis(A.cell, fs[:-1] + (fs[-1] + x,))

    monkeypatch.setattr("grobcell.cli.psi", broken_psi)
    code, out, err = invoke(["verify", "--matrix", ex3_matrix_file])
    assert code == 3 and out == ""
    assert err == (
        "defect[INTERNAL]: column 1 of X+A is not a syzygy of psi(A) within its raw bounds\n"
    )


def test_field_qq_flag_is_the_default_field(ex3_matrix_file):
    plain = invoke(["psi", "--matrix", ex3_matrix_file])
    assert plain[0] == 0
    assert invoke(["psi", "--matrix", ex3_matrix_file, "--field", "qq"]) == plain


def test_beta_skips_empty_pieces():
    plain = invoke(["strata-codim", "--m", "0,5,7,11", "--beta", "8=1", "--json"])
    assert plain[0] == 0
    assert invoke(["strata-codim", "--m", "0,5,7,11", "--beta", ",8=1, ,", "--json"]) == plain


@pytest.mark.parametrize(
    "argv, message",
    [
        (["psi", "--field", "qq", "--prime", "7"], "--prime only makes sense with --field fp"),
        (["psi", "--field", "fp"], "--field fp requires --prime"),
        (["strata-codim", "--m", "0,5,7,11", "--beta", "8=x"], "cannot parse --beta entry '8=x'"),
        (["strata-codim", "--m", "0,5,7,11", "--beta", "8"], "cannot parse --beta entry '8'"),
        (["strata-codim", "--m", "0,5,7,11", "--beta", " , "], "--beta needs at least one j=u entry"),
    ],
    ids=["qq-with-prime", "fp-without-prime", "beta-unparsable", "beta-no-value", "beta-empty"],
)
def test_flag_errors_golden(ex3_matrix_file, argv, message):
    if argv[0] == "psi":
        argv = argv + ["--matrix", ex3_matrix_file]
    assert invoke(argv) == (2, "", f"error: {message}\n")


def test_gens_file_without_polynomials(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# only a comment\n\n   \n  # and another\n")
    assert invoke(["canonicalize", "--gens", str(path)]) == (
        2,
        "",
        f"error: no polynomials found in {path}\n",
    )


def test_verify_rejects_out_of_bounds_matrix(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "m": [0, 2, 3, 5],
                "index_base": 1,
                "entries": [
                    ["0", "0", "0"],
                    ["0", "0", "0"],
                    ["0", "-y+1", "0"],
                    ["0", "0", "0"],
                ],
            }
        )
    )
    code, _, err = invoke(["verify", "--matrix", str(path)])
    assert code == 2 and "BOUND_VIOLATION" in err and "(3,2)" in err


def test_canonicalize_cli(ex3_gens_file):
    code, out, _ = invoke(["canonicalize", "--gens", ex3_gens_file, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"]["entries"] == [list(r) for r in EX3_A_ROWS]
    assert obj["generators"] == list(EX3_REGENERATED)


def test_canonicalize_wrong_cell(ex3_gens_file):
    code, _, err = invoke(
        ["canonicalize", "--gens", ex3_gens_file, "--m", "0,5,7,11"]
    )
    assert code == 2 and "WRONG_INITIAL_IDEAL" in err


@pytest.mark.parametrize("mutate", [stale_basis_move, wrong_lead_move])
def test_canonicalize_mutated_move_is_a_defect(ex3_gens_file, monkeypatch, mutate):
    # a move that leaves the carried basis behind A, or breaks one of its
    # leading terms (a LeadingTermMismatch inside the certificate), must end
    # in the defect exit code, not in exit 2 or a traceback
    move = grobcell.canonical.reduction_move
    monkeypatch.setattr("grobcell.canonical.reduction_move", mutate(move))
    code, out, err = invoke(["canonicalize", "--gens", ex3_gens_file])
    assert code == 3 and out == ""
    assert err == "defect[INTERNAL]: canonical matrix presents a different ideal\n"


def test_betti_cli(tmp_path):
    path = tmp_path / "A31.json"
    path.write_text(
        json.dumps(
            {
                "m": [0, 5, 7, 11],
                "index_base": 1,
                "entries": [
                    ["0", "0", "0"],
                    ["0", "0", "0"],
                    ["1", "0", "0"],
                    ["0", "0", "0"],
                ],
            }
        )
    )
    code, out, _ = invoke(["betti", "--matrix", str(path), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["beta0"] == {"3": 1, "7": 1, "11": 1}
    assert obj["lex_baseline"] == {"3": 1, "7": 1, "8": 1, "11": 1}


def test_strata_codim_cli():
    code, out, _ = invoke(["strata-codim", "--m", "0,5,7,11", "--beta", "8=1", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["per_degree_codim"] == {"8": 1} and obj["codim_total"] == 1
    code, _, err = invoke(["strata-codim", "--m", "0,5,7,11", "--beta", "8=5"])
    assert code == 2 and "EMPTY_STRATUM" in err


def test_missing_file_is_input_error():
    code, _, err = invoke(["psi", "--matrix", "/nonexistent/A.json"])
    assert code == 2 and err.startswith("error")


def test_canonicalize_non_artinian_gens(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("x\n")
    code, _, err = invoke(["canonicalize", "--gens", str(path)])
    assert code == 2 and "WRONG_INITIAL_IDEAL" in err


def test_human_modes_render():
    code, out, _ = invoke(["dim", "--m", "0,5,7,11"])
    assert code == 0 and "dim V(I0) = 30" in out
    code, out, _ = invoke(
        ["sample", "--m", "0,1", "--field", "fp", "--prime", "5", "--seed", "9"]
    )
    assert code == 0 and out.count("[") == 2
    code, out, _ = invoke(
        ["sample", "--m", "0,1,3", "--seed", "1", "--trials", "2"]
    )
    assert code == 0 and "2 trials, 0 failures" in out
    code, out, _ = invoke(["strata-codim", "--m", "0,5,7,11", "--beta", "8=1"])
    assert code == 0 and "total codim = 1" in out


TEXT_GOLDENS = {
    "canonicalize": (
        "A =\n"
        "  [ 2*y-2  -2*y+1    0 ]\n"
        "  [    -2       2    4 ]\n"
        "  [   y-2       3    4 ]\n"
        "  [    -1       1  y+1 ]\n"
        "generators:\n"
        "  x^3-x^2*y-2*x*y^2+2*y^3-2*x^2+x*y+y^2-x+2*y-2\n"
        "  x^2*y^2-x*y^3-y^4+2*x^2*y-8*x*y^2+5*y^3-2*x^2-x*y+3*y^2+6*x-3*y\n"
        "  x*y^3-y^4-2*x^2*y+6*x*y^2-5*y^3+x^2-x*y+2*y^2-3*x+4*y-2\n"
        "  y^5-2*x*y^3+4*y^4+5*x*y^2+2*y^3-6*y^2-4*x-12*y+8\n"
    ),
    "betti": (
        "deg  beta0  beta1  lex_beta0  codim\n"
        "  3      1      0          1      0\n"
        "  4      2      0          2      0\n"
        "  5      0      1          1      0\n"
        "  6      0      1          0      0\n"
        "total codim = 0\n"
    ),
    "sample": (
        "[ -6*y^4-y^3-7*y^2+9*y-5  -3*y^4+3*y^3+6*y^2+5*y+6  4*y^4+3*y^3-9*y^2+6*y-6 ]\n"
        "[                  5*y-9                    -2*y-1                   -6*y+9 ]\n"
        "[                      1                    -9*y-9        3*y^3-9*y^2+8*y-9 ]\n"
        "[                      0                         0                    4*y-3 ]\n"
    ),
    "trials": (
        "trial 0 (seed 1): ok\n"
        "trial 1 (seed 0): ok\n"
        "trial 2 (seed 3): ok\n"
        "3 trials, 0 failures\n"
    ),
}


@pytest.mark.parametrize("case", sorted(TEXT_GOLDENS))
def test_text_mode_golden(case, ex3_gens_file, ex3_matrix_file):
    # the non-JSON stdout, byte for byte: canonicalize and betti on the
    # worked example, one EX1 sample and three EX1 trials
    argv = {
        "canonicalize": ["canonicalize", "--gens", ex3_gens_file],
        "betti": ["betti", "--matrix", ex3_matrix_file],
        "sample": ["sample", "--m", "0,5,7,11", "--seed", "1"],
        "trials": ["sample", "--m", "0,5,7,11", "--seed", "1", "--trials", "3"],
    }[case]
    assert invoke(argv) == (0, TEXT_GOLDENS[case], "")


def test_repeat_runs_byte_identical(ex3_gens_file, ex3_matrix_file):
    commands = [
        ["cell", "--m", "0,5,7,11", "--json"],
        ["dim", "--m", "0,5,7,11", "--json"],
        ["sample", "--m", "0,2,3,5", "--field", "fp", "--prime", "10007",
         "--seed", "5", "--json"],
        ["psi", "--matrix", ex3_matrix_file, "--json"],
        ["psi", "--matrix", ex3_matrix_file, "--homogeneous", "--json"],
        ["verify", "--matrix", ex3_matrix_file],
        ["canonicalize", "--gens", ex3_gens_file, "--json"],
        ["betti", "--matrix", ex3_matrix_file, "--json"],
        ["strata-codim", "--m", "0,5,7,11", "--beta", "8=1", "--json"],
    ]
    for argv in commands:
        first = invoke(argv)
        second = invoke(argv)
        assert first == second and first[0] == 0, argv


def test_subprocess_hash_seed_independence(ex3_gens_file):
    outs = []
    for hash_seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "grobcell", "canonicalize", "--gens",
             ex3_gens_file, "--json"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
