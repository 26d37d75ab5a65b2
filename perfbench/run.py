"""The grobcell benchmark.

    python3 perfbench/run.py --workload forward-qq --seed 1 --seconds 56 --trace 0

Runs one workload (see BENCHMARK.json and bench.py) for ``--seconds`` in a
process of its own and prints, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced run
with ``--trace 1``.  The line before it records the environment.

``setup_s`` is the median over several processes of the time from process
start to the first timed command; extra processes that only set up are
started one after another before the measured one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170


def _child(args, extra, timeout) -> dict:
    spawned = time.monotonic()
    argv = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--spawned", repr(spawned)] + extra
    # A fixed hash seed removes one source of difference between processes.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT,
                          env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one grobcell benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    start = time.monotonic()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_child(args, ["--setup-only"], 60)["setup_s"])
        remaining = CHILD_TIMEOUT_S - (time.monotonic() - start)
        res = _child(args, [], remaining)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for line in res["errors"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if args.trace:
        wanted, values = spec["per_layer"], res["layers"]
    else:
        wanted = spec["end_to_end"]
        values = dict(res["e2e"], setup_s=statistics.median(setups + [res["setup_s"]]))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": res.get("samples"),
        "recorded_digests": res["recorded_digests"],
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "python": platform.python_version(),
        "commit": _commit(),
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
