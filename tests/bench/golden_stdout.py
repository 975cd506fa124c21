#!/usr/bin/env python3
"""Diff a program's stdout (or a file it writes) against a golden file.

usage: golden_stdout.py [--file <name>] <golden file> <program> [args...]

The golden files under tests/golden/ pin the console output of the
harnesses whose code is refactored most often; any byte of drift
fails, with a unified diff of the first lines that differ. With
--file, the program runs in a scratch directory and the file <name>
it writes there is compared instead of its stdout.
"""

import difflib
import os
import subprocess
import sys
import tempfile


def main(argv):
    output_file = None
    if argv[1:2] == ["--file"] and len(argv) >= 3:
        output_file = argv[2]
        argv = argv[:1] + argv[3:]
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], "rb") as f:
        golden = f.read()
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(argv[2:], cwd=cwd, capture_output=True,
                              timeout=300)
        actual = proc.stdout
        if proc.returncode == 0 and output_file is not None:
            path = os.path.join(cwd, output_file)
            if not os.path.exists(path):
                print(f"golden: {argv[2]} wrote no {output_file}",
                      file=sys.stderr)
                return 1
            with open(path, "rb") as f:
                actual = f.read()
    if proc.returncode != 0:
        print(f"golden: {argv[2]} exited {proc.returncode}",
              file=sys.stderr)
        return 1
    if actual == golden:
        print(f"golden: {argv[1]} matches")
        return 0
    diff = difflib.unified_diff(
        golden.decode().splitlines(), actual.decode().splitlines(),
        "golden", "actual", lineterm="")
    print("\n".join(list(diff)[:60]), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
