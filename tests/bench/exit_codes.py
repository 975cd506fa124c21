#!/usr/bin/env python3
"""Exit-code contract of one bench harness.

usage: exit_codes.py <harness binary>

Bad input must end a harness with exit code 2, never a SIGABRT and
never silently. The harness's own typed flags are read from the usage
it prints, so a new flag is covered as soon as it is in the table.
Checked:

* an unknown flag exits 2 and prints the usage;
* every typed flag -- the harness's rows with an <n>, <x> or custom
  placeholder, plus the shared --jobs, --engine-mode and
  --flight-recorder -- exits 2 on a malformed value, spelled
  "--flag value" and "--flag=value";
* a value flag given no value, and a switch given one, exit 2;
* "--jobs=2" and "--jobs 2" are accepted alike: the same exit code
  and, where the output is deterministic, the same stdout.
"""

import os
import re
import subprocess
import sys
import tempfile

SHARED = {"--manifest", "--no-manifest", "--trace", "--flight-recorder",
          "--flight-dump", "--jobs", "--engine-mode"}
SHARED_TYPED = ["--jobs", "--engine-mode", "--flight-recorder"]

# Harnesses whose stdout includes wall-clock timings; for these the
# --jobs spellings are compared by exit code only.
TIMED = {"characterize_scaling"}

failures = []


def run(binary, args, cwd):
    proc = subprocess.run([binary, "--no-manifest", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def expect_usage_error(binary, args, cwd, mentions):
    code, _, err = run(binary, args, cwd)
    if code != 2:
        failures.append(f"{args}: exit {code}, want 2")
    elif mentions not in err or "usage:" not in err:
        failures.append(f"{args}: stderr lacks '{mentions}' or usage")


def harness_flags(usage):
    """(name, takes_value, placeholder) of the harness's own rows."""
    rows = []
    for line in usage.splitlines():
        m = re.match(r"  (--[a-z-]+)(?: \[?(<[a-z]+>)\]?)?\s", line)
        if m and m.group(1) not in SHARED:
            rows.append((m.group(1), m.group(2)))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = os.path.abspath(argv[1])
    name = os.path.basename(binary)
    with tempfile.TemporaryDirectory() as cwd:
        code, _, usage = run(binary, ["--bogus"], cwd)
        if code != 2 or "'--bogus'" not in usage:
            failures.append(f"--bogus: exit {code}, want 2")
        rows = harness_flags(usage)

        typed = [f for f, p in rows if p not in (None, "<value>")]
        for flag in typed + SHARED_TYPED:
            expect_usage_error(binary, [flag, "x"], cwd, flag)
            expect_usage_error(binary, [f"{flag}=x"], cwd, flag)
        for flag, placeholder in rows + [("--manifest", "<value>"),
                                         ("--no-manifest", None)]:
            if placeholder is None:
                expect_usage_error(binary, [f"{flag}=x"], cwd, flag)
            else:
                expect_usage_error(binary, [flag], cwd, flag)

        # Both spellings parse; the unknown flag after them is then
        # the only complaint.
        for spelling in (["--jobs=2"], ["--jobs", "2"]):
            expect_usage_error(binary, spelling + ["--bogus"], cwd,
                               "'--bogus'")
        joined = run(binary, ["--jobs=2"], cwd)
        split = run(binary, ["--jobs", "2"], cwd)
        if joined[0] != split[0]:
            failures.append(f"--jobs=2 exits {joined[0]}, "
                            f"--jobs 2 exits {split[0]}")
        elif name not in TIMED and joined[1] != split[1]:
            failures.append("--jobs=2 and --jobs 2 print different output")

    for failure in failures:
        print(f"{name}: FAIL -- {failure}", file=sys.stderr)
    if not failures:
        print(f"{name}: OK -- {len(typed)} typed harness flag(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
