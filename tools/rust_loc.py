#!/usr/bin/env python3
"""Prints the non-test Rust line count of the repository.

    python3 tools/rust_loc.py

Counts the lines of every git-tracked `*.rs` file outside `tests/`
directories and `perfbench/`, each file up to (not including) its first
line that starts with `#[cfg(test)]`, indentation aside. Run it before
and after a change to get the change's net non-test line delta.
"""

import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def counted(path):
    parts = Path(path).parts
    return parts[0] != "perfbench" and "tests" not in parts[:-1]


def non_test_lines(path):
    n = 0
    with open(ROOT / path, encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("#[cfg(test)]"):
                break
            n += 1
    return n


def main():
    tracked = subprocess.run(["git", "ls-files", "*.rs"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.split()
    print(sum(non_test_lines(p) for p in tracked if counted(p)))


if __name__ == "__main__":
    main()
