"""Acceptance suite: every exit criterion, run at its stated tolerance,
one PASS/FAIL line per criterion.

Everything numeric is exact (integer or field arithmetic); the only
tolerances here are runtime budgets.  Run with `pytest -s
tests/test_acceptance.py` to see the report lines.
"""

import io
import json
import random
import time
from contextlib import contextmanager

import pytest

from grobcell import GF, QQ, canonicalize, make_cell, psi, sample
from grobcell.betti import betti_numbers, index_sets, strata_codim
from grobcell.canonical import canonical_matrix
from grobcell.cell import hilbert_function
from grobcell.cli import run
from grobcell.groebner import buchberger, initial_ideal
from grobcell.projective import psi_bar

from conftest import (
    EX3_A_ROWS,
    EX3_GENS,
    EX3_REGENERATED,
    M_EX1,
    M_EX2,
    M_EX3,
    param_matrix_from_strings,
)
from oracles import (
    dehomogenize,
    enumerate_lex_segment_cells,
    is_homogeneous,
    minimalize_homogeneous,
    z_regular,
)

# 10003 = 7 * 1429 is composite, so the nearest prime above it serves as
# the large-field oracle characteristic.
BIG_PRIME = 10007


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def timed(argv):
    t0 = time.perf_counter()
    out = invoke(argv)
    return out, time.perf_counter() - t0


def test_criterion_1_small_example_golden():
    with criterion(1, "small-cell golden data under 10 ms"):
        invoke(["cell", "--m", "0,5,7,11", "--json"])  # warm the path
        out, elapsed = timed(["cell", "--m", "0,5,7,11", "--json"])
        obj = json.loads(out)
        assert obj["hilbert_function"] == [1, 2, 3, 3, 3, 3, 3, 2, 1, 1, 1]
        assert obj["bound_matrix"] == [[4, 4, 4], [1, 1, 1], [0, 1, 3], [-3, -2, 1]]
        assert obj["special_i"] == [1, 3]
        assert obj["special_j"] == [1, 2, 3]
        assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"


def test_criterion_2_large_example_golden():
    with criterion(2, "large-cell parameter count and bookkeeping under 50 ms"):
        m_flag = ",".join(str(v) for v in M_EX2)
        invoke(["cell", "--m", m_flag, "--json"])
        out, elapsed = timed(["cell", "--m", m_flag, "--json"])
        obj = json.loads(out)
        assert obj["parameter_count"] == 195
        assert obj["hilbert_function"] == [
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12, 12, 9, 9, 9, 9, 6, 3, 3
        ]
        h = obj["hilbert_function"]
        assert obj["below_diagonal_degree1_slots"] == h[12] == 12
        assert obj["below_diagonal_zero_slots"] == 27 + 9 + 9 == 45
        assert elapsed < 0.050, f"took {elapsed * 1000:.2f} ms"


def test_criterion_3_inverse_map_golden(tmp_path):
    with criterion(3, "worked inverse-map example end to end under 100 ms"):
        gens_file = tmp_path / "gens.txt"
        gens_file.write_text("\n".join(EX3_GENS) + "\n")
        argv = ["canonicalize", "--gens", str(gens_file), "--json"]
        invoke(argv)
        out, elapsed = timed(argv)
        obj = json.loads(out)
        assert obj["matrix"]["m"] == list(M_EX3)
        assert obj["matrix"]["entries"] == [list(r) for r in EX3_A_ROWS]
        assert obj["generators"] == list(EX3_REGENERATED)
        assert elapsed < 0.100, f"took {elapsed * 1000:.2f} ms"


def _sample_stream(field, count, seed):
    cells = [c for c in enumerate_lex_segment_cells(20) if c.colength() >= 2]
    rng = random.Random(seed)
    for _ in range(count):
        cell = rng.choice(cells)
        yield cell, sample(cell, field, seed=rng.randrange(2**32))


@pytest.fixture(scope="module")
def forward_samples():
    samples = list(_sample_stream(GF(BIG_PRIME), 200, seed=20250810))
    samples += list(_sample_stream(QQ, 50, seed=19481117))
    return samples


def test_criterion_4_forward_parametrization(forward_samples):
    with criterion(4, "250 random matrices present their cell (oracle), under 60 s"):
        t0 = time.perf_counter()
        failures = 0
        for cell, A in forward_samples:
            gb = buchberger(list(psi(A).polys))
            if set(initial_ideal(gb)) != set(cell.minimal_generators()):
                failures += 1
        elapsed = time.perf_counter() - t0
        assert failures == 0
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_5_bijectivity(forward_samples):
    with criterion(5, "same 250 samples canonicalize back to the exact matrix"):
        failures = 0
        for cell, A in forward_samples:
            basis = psi(A)
            if canonicalize(list(basis.polys), cell) != A:
                failures += 1
            if canonical_matrix(basis)[0] != A:
                failures += 1
        assert failures == 0


def test_criterion_6_dimension_exhaustive():
    with criterion(6, "dimension formula exhaustive to colength 18 under 30 s"):
        t0 = time.perf_counter()
        checked = 0
        for cell in enumerate_lex_segment_cells(18):
            t = cell.t
            slots = sum(
                cell.bound(i, j) + 1
                for i in range(1, t + 2)
                for j in range(1, t + 1)
                if cell.bound(i, j) >= 0
            )
            h = hilbert_function(cell)

            def hv(i):
                return h[i] if 0 <= i < len(h) else 0

            formula = cell.colength() + 1 + sum(
                hv(i) * (hv(i - 1) - hv(i - 2)) for i in range(1, len(h) + 2)
            )
            compact = 1 + sum(
                hv(i) * (hv(i - 1) - hv(i - 2) + 1) for i in range(len(h) + 2)
            )
            assert slots == formula == compact, cell
            n = cell.colength()
            if n >= 2:
                assert max(n + t, n + 2) <= slots <= 2 * n, cell
            checked += 1
        elapsed = time.perf_counter() - t0
        assert checked > 100
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_7_projective_lift():
    with criterion(7, "100 random samples lift to the projective cell"):
        failures = 0
        for cell, A in _sample_stream(GF(BIG_PRIME), 100, seed=60321):
            FB = psi_bar(A)
            if not all(is_homogeneous(F) for F in FB.polys):
                failures += 1
                continue
            if not z_regular(list(FB.polys)):
                failures += 1
                continue
            gb = buchberger(list(FB.polys))
            want = {(a, b, 0) for a, b in cell.minimal_generators()}
            if set(initial_ideal(gb)) != want:
                failures += 1
                continue
            if [dehomogenize(F) for F in FB.polys] != list(psi(A).polys):
                failures += 1
        assert failures == 0


def test_criterion_8_betti_oracle_equivalence():
    with criterion(8, "Betti ranks agree with the minimal-generator oracle"):
        failures = 0
        stream = list(_sample_stream(QQ, 50, seed=777))
        stream += list(_sample_stream(GF(101), 50, seed=778))
        for cell, A in stream:
            table = betti_numbers(A)
            oracle = minimalize_homogeneous(list(psi_bar(A).polys))
            if table.beta0 != oracle:
                failures += 1
        assert failures == 0

        # targeted cases on the small example cell
        cell = make_cell(M_EX1)
        rows = [["0"] * 3 for _ in range(4)]
        rows[2][0] = "1"
        withslot = param_matrix_from_strings(cell, QQ, rows)
        assert betti_numbers(withslot).beta0.get(8, 0) == 0
        generic = sample(cell, QQ, seed=4242)
        rows = [[str(e) for e in row] for row in generic.entries]
        rows[2][0] = "0"
        without = param_matrix_from_strings(cell, QQ, rows)
        assert betti_numbers(without).beta0.get(8, 0) == 1

        w8, v8 = index_sets(cell, 8)
        codim = strata_codim(cell, 8, 1)
        beta1_of_ideal = len(v8) - len(w8) + 1
        assert codim == 1 == beta1_of_ideal * 1


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "fixed-seed CLI runs are byte-identical"):
        gens_file = tmp_path / "gens.txt"
        gens_file.write_text("\n".join(EX3_GENS) + "\n")
        matrix_file = tmp_path / "A.json"
        matrix_file.write_text(
            json.dumps(
                {
                    "m": list(M_EX3),
                    "index_base": 1,
                    "field": {"kind": "rationals"},
                    "entries": [list(r) for r in EX3_A_ROWS],
                }
            )
        )
        commands = [
            ["cell", "--m", "0,5,7,11", "--json"],
            ["cell", "--m", ",".join(str(v) for v in M_EX2), "--json"],
            ["dim", "--m", "0,5,7,11", "--json"],
            ["sample", "--m", "0,2,3,5", "--field", "fp", "--prime",
             str(BIG_PRIME), "--seed", "12345", "--json"],
            ["sample", "--m", "0,1,3", "--seed", "1", "--trials", "3", "--json"],
            ["psi", "--matrix", str(matrix_file), "--json"],
            ["psi", "--matrix", str(matrix_file), "--homogeneous", "--json"],
            ["verify", "--matrix", str(matrix_file)],
            ["canonicalize", "--gens", str(gens_file), "--json"],
            ["betti", "--matrix", str(matrix_file), "--json"],
            ["strata-codim", "--m", "0,5,7,11", "--beta", "8=1,11=1", "--json"],
        ]
        for argv in commands:
            assert invoke(argv) == invoke(argv), argv
