#!/usr/bin/env python3
"""Diff a program's stdout against a committed golden file.

usage: golden_stdout.py <golden file> <program> [args...]

The golden files under tests/golden/ pin the console output of the
harnesses whose code is refactored most often; any byte of drift
fails, with a unified diff of the first lines that differ.
"""

import difflib
import subprocess
import sys
import tempfile


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], "rb") as f:
        golden = f.read()
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(argv[2:], cwd=cwd, capture_output=True,
                              timeout=300)
    if proc.returncode != 0:
        print(f"golden: {argv[2]} exited {proc.returncode}",
              file=sys.stderr)
        return 1
    if proc.stdout == golden:
        print(f"golden: {argv[1]} matches")
        return 0
    diff = difflib.unified_diff(
        golden.decode().splitlines(), proc.stdout.decode().splitlines(),
        "golden", "actual", lineterm="")
    print("\n".join(list(diff)[:60]), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
