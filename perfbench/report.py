"""Run every workload untraced and traced, and print every end-to-end and
per-layer metric by name with its unit.

    python3 perfbench/report.py --seed 1 [--out result.json]

Each run is a separate ``run.py`` process, started one after another, and
measures for ``run_seconds`` of BENCHMARK.json.
``--out`` also writes the environment lines and all metrics as one JSON
document, for before/after comparisons.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    doc = {"seed": args.seed, "seconds": seconds, "runs": []}
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: run failed (exit {proc.returncode})")
                status = 1
                continue
            env, result = json.loads(lines[-2][len("env "):]), json.loads(lines[-1])
            doc["runs"].append({"env": env, "result": result})
            fail_frac = result["failed"] / result["attempted"]
            print(f"== {name}  trace={trace}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}  "
                  f"fail_frac={fail_frac:g}  loadavg={env['loadavg']}  commit={env['commit']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:52s} {v['value']:>14.6g} {v['unit']}")
            if not result["correct"]:
                status = 1
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
