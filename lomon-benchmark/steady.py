#!/usr/bin/env python3
"""Steadiness check for the lomon benchmark.

Runs two sets of untraced runs of each workload, each run with its own
seed, and prints for every end-to-end metric each set's median, its
quartiles, the quartile spread as a share of the median, and how far the
second set's median lies from the first's. The bounds in BENCHMARK.json
are chosen from these figures.

    python3 lomon-benchmark/steady.py [--runs 10] [--sets 2] [--seconds 10]
                                      [--seed 1000] [workload ...]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["check-ipu", "watch-fanout", "serve-streams", "platform-online"]


def run_once(workload, seed, seconds):
    cmd = ["bash", str(HERE / "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    seed = args.seed
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            results = []
            for _ in range(args.runs):
                results.append(run_once(workload, seed, args.seconds))
                seed += 1
            sets.append(results)
        print(f"== {workload}: {args.sets} sets x {args.runs} runs")
        for k, results in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in results}
            correct = all(r["correct"] for r in results)
            print(f"  set {k + 1}: correct {correct}, failed shares {sorted(shares)}")
        for metric in sets[0][0]["metrics"]:
            unit = sets[0][0]["metrics"][metric]["unit"]
            meds = []
            for k, results in enumerate(sets):
                values = [r["metrics"][metric]["value"] for r in results]
                med, q1, q3, spread = summary(values)
                meds.append(med)
                print(f"  {metric:<24} set {k + 1}: median {med:.6g} {unit}, "
                      f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.3%}")
            for k in range(1, len(meds)):
                drift = (meds[k] - meds[0]) / meds[0] if meds[0] else float("nan")
                print(f"  {metric:<24} set {k + 1} vs set 1: {drift:+.3%}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
