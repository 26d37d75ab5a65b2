"""One workload process: build the seeded inputs, run the workload's CLI
commands in passes until the time is up, check every output, and print one
JSON line of raw measurements.  ``run.py`` starts this file; see it for the
command line a user types.

Every command goes through ``grobcell.cli.run(argv, out, err)`` in this
process, one after another (a closed loop with one client and no threads),
with ``gc.collect()`` before each.  The program only ever sees the generated
files and the argv.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
from tracing import Tracer, expected_keys  # noqa: E402

M_EX1 = (0, 5, 7, 11)
M_EX2 = (0, 3, 4, 5, 10, 11, 12, 14, 15, 16, 19, 20, 21)
M_EX3 = (0, 2, 3, 5)
PRIME = 10007
# Extra timed repeats of the bottom rung after each untraced pass; its
# commands take milliseconds, so one sample per pass is too few for a median.
BOTTOM_REPEATS = 3
# A rung with variants has several seeded inputs, so a run's median
# averages over inputs and the seed moves it less: over QQ the cost of one
# input varies by 10-25% with its coefficients.  Cheap rungs run all their
# inputs in every pass; costly ones take the next input in each pass, so
# they get as many inputs as a 56 s run has passes (about 8 on forward-qq,
# about 4 on roundtrip-inverse).  GF(p) rungs, whose cost does not depend on
# the draw, and the rung checked by sympy at ~3 s per input keep one input.
VARIANTS = 8
INVERSE_PASSES = 4


def evens(t: int) -> tuple:
    return tuple(range(0, 2 * t + 1, 2))


def m_arg(m) -> str:
    return ",".join(map(str, m))


@dataclass
class Command:
    rung: str
    key: str  # stable name for digests: rung, variant and argv without file paths
    argv: list
    check: object  # check(stdout, seen) -> error string or None; first run only
    deep: object = None  # deep(stdout) -> error string or None; after the loop


@dataclass
class Workload:
    rungs: list  # (name, variants, per_pass); a variant is a list of Commands
    bottom: tuple  # names of the rungs on the smallest cell
    top: tuple  # names of the rungs on the largest cell

    def commands(self, p: int) -> list:
        """The command list of pass ``p``: each rung's next ``per_pass``
        variants, cyclically."""
        return [c for _, variants, k in self.rungs for i in range(k)
                for c in variants[(p * k + i) % len(variants)]]

    def all_commands(self) -> list:
        return [c for _, variants, _ in self.rungs for v in variants for c in v]


def rung_seed(workload: str, tag: str, seed: int) -> int:
    return zlib.crc32(f"{workload}/{tag}/{seed}".encode())


def _json_check(fn):
    """Wrap a check on the parsed JSON document."""

    def check(stdout, seen):
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        return fn(doc, seen)

    return check


# -- forward-qq --------------------------------------------------------------
# Only the forward map runs: psi, the t-S-pair certificate, Betti ranks and
# the projective lift of matrices sampled over QQ.  Minor expansion in
# hilburch dominates; groebner and canonical never run.
FORWARD_RUNGS = (  # (name, m, variants, variants per pass)
    ("ex3", M_EX3, VARIANTS, VARIANTS),  # bottom: fixed cost per command
    ("ex1", M_EX1, VARIANTS, VARIANTS),
    ("evens8", evens(8), 1, 1),  # largest rung sympy confirms in a few seconds
    ("evens10", evens(10), VARIANTS, 1),
    ("ex2", M_EX2, VARIANTS, 1),  # top: t = 12, minor expansion is most of a pass
)


def _forward_commands(rung, tag, m, path, entries, rng):
    t = len(m) - 1

    def psi_check(d, seen):
        seen[tag] = d["f"]
        return reference.check_minors_at_points(m, entries, d["f"], rng)

    def psi_deep(stdout):
        return reference.check_with_sympy(m, entries, json.loads(stdout)["f"])

    def verify_check(d, seen):
        want = {"ok": True, "s_pairs": t, "m": list(m)}
        return None if d == want else f"verify printed {d}, expected {want}"

    def betti_check(d, seen):
        return reference.check_betti(m, d)

    def hom_check(d, seen):
        if tag not in seen:
            return "no psi output to compare the homogeneous generators with"
        return reference.check_homogeneous(seen[tag], d["F"])

    deep = psi_deep if t <= reference.SYMPY_MAX_T else None
    commands = []
    for argv, check, deep_check in (
        (["psi", "--matrix", str(path), "--json"], psi_check, deep),
        (["verify", "--matrix", str(path), "--json"], verify_check, None),
        (["betti", "--matrix", str(path), "--json"], betti_check, None),
        (["psi", "--matrix", str(path), "--homogeneous", "--json"], hom_check, None),
    ):
        key = " ".join([tag] + [a for a in argv if a != str(path)])
        commands.append(Command(rung, key, argv, _json_check(check), deep_check))
    return commands


def forward_qq(seed: int, workdir: Path, lib) -> Workload:
    rungs = []
    for rung, m, count, per_pass in FORWARD_RUNGS:
        variants = []
        for k in range(count):
            tag = f"{rung}.{k}"
            A = lib.sample(lib.make_cell(m), lib.QQ, rung_seed("forward-qq", tag, seed))
            doc = lib.param_matrix_to_json(A)
            path = workdir / f"forward-{tag}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            rng = random.Random(rung_seed("forward-qq/points", tag, seed))
            variants.append(_forward_commands(rung, tag, m, path, doc["entries"], rng))
        rungs.append((rung, variants, per_pass))
    return Workload(rungs, bottom=("ex3",), top=("ex2",))


# -- roundtrip-inverse -------------------------------------------------------
# Every stage of both maps, in two groups of rungs.  Their inputs are seeded
# under the group names "roundtrip-gf" and "inverse-qq".
#
# gf/: the user's statistical validation over GF(10007), sample --trials:
# sample, psi, the certificate and canonicalize(verify=False) per trial.  The
# inputs are already Groebner bases, so Buchberger re-verifies and every
# S-pair reduces to zero; the move loop is large on ex2.  The only GF(p) work
# in the benchmark.
ROUNDTRIP_RUNGS = (  # (name, m, trials)
    ("ex3", M_EX3, 10),  # bottom
    ("ex1", M_EX1, 10),
    ("evens8", evens(8), 3),
    ("ex2", M_EX2, 1),  # top: ~1.4 k reduction moves per trial
)


def _roundtrip_rungs(seed: int) -> list:
    rungs = []
    for rung, m, trials in ROUNDTRIP_RUNGS:
        tag = f"{rung}.0"
        s = rung_seed("roundtrip-gf", tag, seed)
        argv = ["sample", "--m", m_arg(m), "--field", "fp", "--prime", str(PRIME),
                "--seed", str(s), "--trials", str(trials), "--json"]

        def check(d, seen, s=s, trials=trials):
            if d.get("trials") != trials or d.get("failures") != 0:
                return f"trials={d.get('trials')} failures={d.get('failures')}"
            want = [{"trial": k, "seed": s ^ k, "groebner_certified": True,
                     "roundtrip_exact": True} for k in range(trials)]
            return None if d["results"] == want else "a trial failed its round trip"

        cmd = Command(f"gf/{rung}", f"{tag} sample --trials {trials}", argv, _json_check(check))
        rungs.append((f"gf/{rung}", [[cmd]], 1))
    return rungs


# qq/: canonicalize on generators that are not a Groebner basis: (a) an
# invertible integer recombination L*U of psi(A), so Buchberger does real
# completion work over QQ with coefficient growth and only a few moves; (b)
# the two-line monomial inputs x^e, y, non-lex-segment cells with long t.
INVERSE_RUNGS = (  # (name, m, variants, variants per pass)
    ("ex3", M_EX3, VARIANTS, VARIANTS),  # bottom
    ("ex1", M_EX1, VARIANTS, VARIANTS),
    ("range6", tuple(range(7)), INVERSE_PASSES, 1),
    # largest (a) rung: evens(8) takes ~100 s per command at this commit, a
    # cliff recorded for the input-cap work rather than hidden.
    ("evens6", evens(6), INVERSE_PASSES, 1),
)
MONOMIAL_RUNGS = (("x40", 40), ("x60", 60))


def _recombine(fs, rng, lib):
    """L*U*fs with L unit lower- and U unit upper-triangular, off-diagonal
    entries uniform in {-2, -1, 1, 2}.  Leaving out 0 keeps every input a
    full recombination: with 0 allowed, the cost of one input varied by a
    quarter more between draws."""
    n = len(fs)
    draw = lambda: rng.choice((-2, -1, 1, 2))  # noqa: E731
    L = [[1 if i == j else (draw() if j < i else 0) for j in range(n)] for i in range(n)]
    U = [[1 if i == j else (draw() if j > i else 0) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        acc = None
        for j in range(n):
            c = sum(L[i][k] * U[k][j] for k in range(n))
            if c:
                term = fs[j].scale(lib.QQ.coerce(c))
                acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _canonicalize_command(rung, tag, path, check):
    return Command(f"qq/{rung}", f"{tag} canonicalize --json",
                   ["canonicalize", "--gens", str(path), "--json"], _json_check(check))


def _inverse_rungs(seed: int, workdir: Path, lib) -> list:
    rungs = []
    for rung, m, count, per_pass in INVERSE_RUNGS:
        variants = []
        for k in range(count):
            tag = f"{rung}.{k}"
            s = rung_seed("inverse-qq", tag, seed)
            A = lib.sample(lib.make_cell(m), lib.QQ, s)
            gens = _recombine(list(lib.psi(A).polys), random.Random(s), lib)
            path = workdir / f"inverse-{tag}.txt"
            path.write_text("".join(lib.format_poly(p) + "\n" for p in gens), encoding="utf-8")
            want = lib.param_matrix_to_json(A)
            rng = random.Random(rung_seed("inverse-qq/points", tag, seed))

            def check(d, seen, m=m, want=want, rng=rng):
                if d["matrix"] != want:
                    return "canonicalize did not return the seeded matrix"
                return reference.check_minors_at_points(m, want["entries"], d["generators"], rng)

            variants.append([_canonicalize_command(rung, tag, path, check)])
        rungs.append((f"qq/{rung}", variants, per_pass))
    for rung, e in MONOMIAL_RUNGS:
        path = workdir / f"inverse-{rung}.txt"
        path.write_text(f"x^{e}\ny\n", encoding="utf-8")
        want = {
            "m": [0] + [1] * e,
            "index_base": 1,
            "field": {"kind": "rationals"},
            "entries": [["0"] * e for _ in range(e + 1)],
        }
        x_pow = lambda k: "x" if k == 1 else f"x^{k}"  # noqa: E731
        staircase = [x_pow(e)] + [f"{x_pow(e - i)}*y" for i in range(1, e)] + ["y"]

        def check(d, seen, want=want, staircase=staircase):
            if d["matrix"] != want:
                return "canonicalize of a monomial ideal did not return A = 0"
            if d["generators"] != staircase:
                return "regenerated generators are not the staircase monomials"
            return None

        rungs.append((f"qq/{rung}", [[_canonicalize_command(rung, f"{rung}.0", path, check)]], 1))
    return rungs


def roundtrip_inverse(seed: int, workdir: Path, lib) -> Workload:
    rungs = _roundtrip_rungs(seed) + _inverse_rungs(seed, workdir, lib)
    return Workload(rungs, bottom=("gf/ex3", "qq/ex3"), top=("gf/ex2",))


WORKLOADS = {"forward-qq": forward_qq, "roundtrip-inverse": roundtrip_inverse}


# -- machine speed -----------------------------------------------------------
# On a shared host the speed of interpreted code drifts by up to 40% over
# tens of seconds, in CPU time as much as in wall time, so one run's medians
# move with the host rather than the program.  A fixed pure-Python kernel
# (Fraction and dict arithmetic, like grobcell's own inner loops) is timed
# between measurements, and every end-to-end time is reported at the
# reference speed, at which the kernel takes CALIBRATION_REF_S: a time is
# scaled by CALIBRATION_REF_S over the mean of the kernel times just before
# and just after it.  The kernel is part of the benchmark, so a change to
# grobcell cannot move it.
CALIBRATION_REF_S = 0.045
CALIBRATION_ITERATIONS = 10_000


def calibration_kernel() -> float:
    gc.collect()
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    return time.perf_counter() - t0


class Speed:
    """``scale(dt)`` turns a time measured since the previous call (or since
    construction) into the time at the reference speed."""

    def __init__(self):
        self.last = calibration_kernel()
        self.kernel_s = [self.last]

    def scale(self, dt: float) -> float:
        k = calibration_kernel()
        self.kernel_s.append(k)
        factor = CALIBRATION_REF_S / ((self.last + k) / 2)
        self.last = k
        return dt * factor


# -- measuring ---------------------------------------------------------------


class Runner:
    def __init__(self, cli, workload: Workload, recorded: dict):
        self.cli = cli
        self.workload = workload
        self.recorded = recorded  # key -> digest recorded for this seed, maybe empty
        self.first: dict = {}  # key -> (digest, stdout) of the first execution
        self.seen: dict = {}
        self.attempted = 0
        self.executions: dict = {}  # key -> executions so far
        self.failed: dict = {}  # key -> executions that failed
        self.errors: list = []

    def _fail(self, cmd, message):
        self.failed[cmd.key] = self.failed.get(cmd.key, 0) + 1
        if len(self.errors) < 20:
            self.errors.append(f"{cmd.key}: {message}")

    def execute(self, cmd) -> float:
        """Run one command, timed; check its output untimed."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        try:
            rc = self.cli.run(cmd.argv, out, err)
        except Exception:  # a defect in the program, counted as a failure
            rc = traceback.format_exc()
        dt = time.perf_counter() - t0
        self.attempted += 1
        self.executions[cmd.key] = self.executions.get(cmd.key, 0) + 1
        if rc != 0:
            self._fail(cmd, f"exit {rc}: {err.getvalue().strip()[:300]}")
            return dt
        stdout = out.getvalue()
        digest = hashlib.sha256(stdout.encode()).hexdigest()[:16]
        if cmd.key not in self.first:
            self.first[cmd.key] = (digest, stdout)
            try:
                problem = cmd.check(stdout, self.seen)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"malformed output: {exc!r}"
            if problem:
                self._fail(cmd, problem)
            elif cmd.key in self.recorded and self.recorded[cmd.key] != digest:
                self._fail(cmd, "stdout differs from the digest recorded for this seed")
        elif self.first[cmd.key][0] != digest:
            self._fail(cmd, "stdout differs from this command's first output")
        elif cmd.key in self.failed:
            self._fail(cmd, "same output as a failed execution")
        return dt

    def run_pass(self, commands, speed=None) -> dict:
        """Times per rung; at the reference speed if ``speed`` is given."""
        times: dict = {}
        for rung, group in itertools.groupby(commands, key=lambda c: c.rung):
            dt = sum(self.execute(c) for c in group)
            times[rung] = times.get(rung, 0.0) + (speed.scale(dt) if speed else dt)
        return times

    def deep_checks(self):
        """Checks too slow for the loop, on the first output of a command;
        every later execution printed the same bytes.  Output that matches a
        digest recorded for this seed passed them when it was recorded."""
        for cmd in self.workload.all_commands():
            if (cmd.deep is None or cmd.key not in self.first or cmd.key in self.failed
                    or cmd.key in self.recorded):
                continue
            problem = cmd.deep(self.first[cmd.key][1])
            if problem:
                self.errors.append(f"{cmd.key}: {problem}")
                self.failed[cmd.key] = self.executions[cmd.key]


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Run passes until the next one would end after ``seconds``.  Untraced
    runs move through the rung variants and report times at the reference
    speed; a traced run alternates untraced and traced passes on the
    variants of pass 0, so its counts repeat exactly, and keeps raw times."""
    wl = runner.workload
    speed = None if trace else Speed()
    untraced, traced, bottom_s, layers, durations = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        commands = wl.commands(0 if trace else len(durations))
        tracer = Tracer() if trace and len(durations) % 2 == 1 else None
        if tracer is not None:
            tracer.install()
            try:
                times = runner.run_pass(commands)
            finally:
                tracer.restore()
            traced.append(sum(times.values()))
            layers.append(tracer.take())
        else:
            times = runner.run_pass(commands, speed)
            untraced.append(times)
            bottom_s.append(sum(times[r] for r in wl.bottom))
            if speed is not None:
                bottom = [c for c in commands if c.rung in wl.bottom]
                for _ in range(BOTTOM_REPEATS):
                    bottom_s.append(speed.scale(sum(runner.execute(c) for c in bottom)))
        durations.append(time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - start
        if len(durations) >= (2 if trace else 1) and (
            elapsed + statistics.median(durations) > seconds
        ):
            break
    return {"untraced": untraced, "traced": traced, "bottom_s": bottom_s, "layers": layers,
            "kernel_s": speed.kernel_s if speed else []}


def summarize_e2e(raw: dict, top: tuple, peak_rss_mb: float) -> dict:
    """End-to-end values, from untraced passes only, with their samples."""
    passes = [sum(t.values()) for t in raw["untraced"]]
    tops = [sum(t[r] for r in top) for t in raw["untraced"]]
    return {
        "e2e": {
            "pass_s": statistics.median(passes),
            "top_rung_s": statistics.median(tops),
            "bottom_rung_ms": 1000 * statistics.median(raw["bottom_s"]),
            "peak_rss_mb": peak_rss_mb,
        },
        "samples": {"pass_s": passes, "top_rung_s": tops, "bottom_rung_ms": len(raw["bottom_s"]),
                    "kernel_ms": 1000 * statistics.median(raw["kernel_s"])},
    }


COUNT_SUFFIXES = (".calls", "spairs_reduced", "spairs_to_zero", "out_terms", "out_len",
                  "coeff_bits_max")


def summarize_layers(raw: dict, store: Path) -> tuple:
    """Per-layer values: medians of self times over traced passes, and
    counts, which must repeat exactly between passes and between runs that
    share ``store``.  Returns the values and the list of counts that did
    not repeat.  Every key the tracer can produce is present, as 0 when its
    function was not called under that parent."""
    layers, untraced, traced = raw["layers"], raw["untraced"], raw["traced"]
    keys = sorted(expected_keys() | {k for pass_ in layers for k in pass_})
    out, problems = {}, []
    for key in keys:
        values = [pass_.get(key, 0) for pass_ in layers]
        if key.endswith(COUNT_SUFFIXES):
            if len(set(values)) != 1:
                problems.append(f"count {key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    pass_untraced = statistics.median(sum(t.values()) for t in untraced)
    pass_traced = statistics.median(traced)
    out["trace.pass_s"] = pass_traced
    out["trace.overhead_frac"] = pass_traced / pass_untraced - 1
    for pass_, total in zip(layers, traced):
        if abs(pass_["trace.self_sum_s"] - total) > 0.01 * total:
            raise RuntimeError(
                f"layer self times add up to {pass_['trace.self_sum_s']:.4f} s, "
                f"but the traced pass took {total:.4f} s"
            )
    counts = {k: v for k, v in out.items() if k.endswith(COUNT_SUFFIXES)}
    if store.exists():
        earlier = json.loads(store.read_text(encoding="utf-8"))
        for key in sorted(set(earlier) | set(counts)):
            if earlier.get(key) != counts.get(key):
                problems.append(f"count {key} = {counts.get(key)} differs from "
                                f"{earlier.get(key)} in an earlier run of {store.name}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="utf-8")
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, default=None,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="run every variant once, untimed, and report the digests")
    args = ap.parse_args(argv)

    import grobcell
    import grobcell.cli

    if Path(grobcell.__file__).resolve().parent != ROOT / "src" / "grobcell":
        print(f"perfbench: imported grobcell from {grobcell.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, grobcell)
        # Set-up time too is reported at the reference speed.
        setup_s = time.monotonic() - (args.spawned or 0)
        setup_s *= CALIBRATION_REF_S / statistics.median(calibration_kernel() for _ in range(3))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        recorded = digests.get(args.workload, {}).get(str(args.seed), {})
        runner = Runner(grobcell.cli, workload, recorded)
        if args.record:
            for p in range(max(len(v) // k for _, v, k in workload.rungs)):
                runner.run_pass(workload.commands(p))
        else:
            raw = measure(runner, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runner.deep_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "attempted": runner.attempted,
        "failed": sum(runner.failed.values()),
        "errors": runner.errors,
        "digests": {k: d for k, (d, _) in runner.first.items()},
        "recorded_digests": len(recorded),
    }
    if not args.record:
        if args.trace:
            # Counts are compared between runs of the same seed, the same
            # command list and the same program source, so a changed
            # benchmark or program starts a new record.
            h = hashlib.sha256("\n".join(c.key for c in workload.commands(0)).encode())
            for src in sorted((ROOT / "src" / "grobcell").rglob("*.py")):
                h.update(src.read_bytes())
            name = f"{args.workload}-{args.seed}-{h.hexdigest()[:12]}"
            store = ROOT / ".perfbench" / "counts" / f"{name}.json"
            result["layers"], problems = summarize_layers(raw, store)
            result["errors"] += problems
            result["failed"] += len(problems)
        else:
            result.update(summarize_e2e(raw, workload.top, peak_rss_mb))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
