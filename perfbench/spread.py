#!/usr/bin/env python3
"""Measures how steady the benchmark is.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds 10] [--trace 0]

Runs the workload once per seed (first-seed, first-seed+1, ...) and, for
each metric, prints the median of the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. With --trace 0 it also prints each end-to-end metric's bound from
BENCHMARK.json and whether the spread stays below a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = a.seconds or manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = [sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", a.trace]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: checks failed: {lines[-1]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)
    steady = True
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        line = f"{a.workload:14} {name:32} median {med:16.6g} spread {spread:7.4f}"
        if name in bounds:
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            line += f"  bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}"
        print(line)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
