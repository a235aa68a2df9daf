"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --workload games --seeds 1-10 [--seconds 10]

Runs perfbench/run.py once per seed, one after another, and prints for
each end-to-end metric the median of the runs and the distance between
the first and third quartile as a share of that median, next to the
metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(raw: str) -> list[int]:
    first, _, last = raw.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        runs.append({k: m["value"] for k, m in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              flush=True)
    worst = 0.0
    for metric in bench["end_to_end"]:
        values = [r[metric["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:14s} median {med:12.6g} {metric['unit']:3s} "
              f"spread {spread:7.2%}  bound {metric['bound']:.0%}")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
