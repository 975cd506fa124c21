#!/usr/bin/env python3
"""Check that a program rejects bad input with its usage and exit 2.

usage: usage_error.py <program> [args...]

Passes when the program exits 2, prints "usage:" on stderr and
nothing on stdout -- the bad input is caught before any work runs.
"""

import subprocess
import sys
import tempfile


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(argv[1:], cwd=cwd, capture_output=True,
                              text=True, timeout=300)
    problems = []
    if proc.returncode != 2:
        problems.append(f"exit {proc.returncode}, want 2")
    if "usage:" not in proc.stderr:
        problems.append("stderr lacks the usage")
    if proc.stdout:
        problems.append("stdout is not empty")
    if problems:
        print(f"{argv[1:]}: " + "; ".join(problems), file=sys.stderr)
        return 1
    print(f"{argv[1:]}: rejected with usage, exit 2")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
