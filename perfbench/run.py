#!/usr/bin/env python3
"""Builds and runs the decision-pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
or perfbench/target when that is unset, then runs it from the checkout
root. The last line of standard output is the run's JSON result.
`--self-test` also checks that the metric names the binary prints are the
ones BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build():
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    binary = Path(target) / "release" / "perfbench"
    if not binary.is_file():
        sys.exit(f"perfbench: no binary at {binary}")
    return str(binary)


def metrics_match_manifest(binary):
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    printed = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        printed[kind].append({"name": name, "unit": unit})
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for kind in printed:
        declared = [{"name": m["name"], "unit": m["unit"]} for m in manifest[kind]]
        if declared != printed[kind]:
            print(f"self-test FAIL: {kind} metrics differ from BENCHMARK.json", file=sys.stderr)
            ok = False
    return ok


def main():
    os.chdir(ROOT)
    binary = build()
    args = sys.argv[1:]
    if args == ["--self-test"]:
        ok = metrics_match_manifest(binary)
        code = subprocess.run([binary, "--self-test"]).returncode
        sys.exit(code if ok else max(code, 1))
    sys.exit(subprocess.run([binary] + args).returncode)


if __name__ == "__main__":
    main()
