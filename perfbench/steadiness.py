#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's metrics.

    python3 perfbench/steadiness.py [--seeds 10] [--seconds 25]

Runs every workload untraced once per seed (seeds 1, 2, ...),
alternating the workload order from one seed to the next, and prints
for each end-to-end metric its median, first and third quartiles
(statistics.quantiles, n=4) and the interquartile spread as a share
of the median. Each result line is also appended to
.bench_build/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "steadiness.jsonl")
WORKLOADS = ["fault_sweep", "steady_sampled", "deploy_engine",
             "fleet_population"]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread_table(records):
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    out = []
    for workload, recs in by_workload.items():
        names = recs[0]["result"]["metrics"].keys()
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else float("inf")
            out.append((workload, name, len(values), med, q1, q3, spread))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()

    records = []
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    for i in range(args.seeds):
        seed = 1 + i
        order = WORKLOADS if i % 2 == 0 else list(reversed(WORKLOADS))
        for workload in order:
            result = run_once(workload, seed, args.seconds)
            rec = {"workload": workload, "seed": seed, "result": result}
            records.append(rec)
            with open(OUT, "a") as f:
                f.write(json.dumps(rec) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in result["metrics"].items()), flush=True)

    print(f"\n{'workload':18} {'metric':14} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8}")
    for workload, name, n, med, q1, q3, spread in spread_table(records):
        print(f"{workload:18} {name:14} {n:3d} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
