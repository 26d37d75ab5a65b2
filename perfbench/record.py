"""Record the stdout digests of every workload command for some seeds.

    python3 perfbench/record.py --seeds 0-20,101

For each seed not yet in ``digests.json``, runs every command of each
workload once, every input variant included, with every output check (sympy
too), and records the digests only when all of them pass.  Seeds already
recorded are left as they are: later runs compare against them, so a change
of any byte of output shows as a failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-20,101")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    status = 0
    for seed in args.seeds:
        for name in (w["name"] for w in spec["workloads"]):
            if str(seed) in digests.get(name, {}):
                continue
            proc = subprocess.run(
                [sys.executable, str(HERE / "bench.py"), "--workload", name, "--seed",
                 str(seed), "--record"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if res["failed"]:
                print(f"{name} seed {seed}: not recorded, {res['failed']} failures")
                for line in res["errors"]:
                    print("  " + line)
                status = 1
                continue
            digests.setdefault(name, {})[str(seed)] = res["digests"]
            DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
            print(f"{name} seed {seed}: recorded {len(res['digests'])} digests")
    return status


if __name__ == "__main__":
    sys.exit(main())
