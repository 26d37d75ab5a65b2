import io
import json
import os
import subprocess
import sys

import pytest

import grobcell.canonical
from grobcell import IdealBasis, Poly, psi
from grobcell.cli import run
from grobcell.groebner import DivisionResult

from conftest import EX3_A_ROWS, EX3_GENS, EX3_REGENERATED, M_EX3


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
        for res in real(basis):
            q = res.quotients
            x = Poly.monomial(q[0].field, 2, (1, 0))
            yield DivisionResult((q[0] + x,) + q[1:], res.remainder)

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
    # t = 1100 columns: the cofactor expansion would recurse past Python's
    # recursion limit, so the matrix is refused as input
    t = 1100
    path = tmp_path / "A.json"
    path.write_text(
        json.dumps({"m": [0] + [1] * t, "entries": [["0"] * t for _ in range(t + 1)]})
    )
    code, out, err = invoke(["psi", "--matrix", str(path), "--json"])
    assert code == 2 and out == ""
    assert err == (
        "error[MATRIX_TOO_LARGE]: minor expansion over 1100 columns exceeds the cap of 300\n"
    )


def test_canonicalize_rejects_cell_past_minor_cap(tmp_path):
    # x^1200, y lies in the cell with t = 1200, whose psi it would expand
    path = tmp_path / "gens.txt"
    path.write_text("x^1200\ny\n")
    code, out, err = invoke(["canonicalize", "--gens", str(path)])
    assert code == 2 and out == ""
    assert err == (
        "error[MATRIX_TOO_LARGE]: minor expansion over 1200 columns exceeds the cap of 300\n"
    )


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
