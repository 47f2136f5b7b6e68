#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload several times, each with another seed, and prints for
every end-to-end metric its median, quartiles, inter-quartile spread as a
share of the median, and max/min ratio. A metric whose spread exceeds its
bound in BENCHMARK.json is flagged BREAKS; one above a third of its bound is
flagged WIDE. With --sets 2 the runs are repeated and the second median is
compared with the first.

Run from the root of the checkout:

    python3 wgrapbench/steady.py --workload serve-replay --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "wgrapbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run: seed {seed}: {lines[-1]}")
    return result, took


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med, max(values) / min(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    medians = []
    worst = 0.0
    for s in range(args.sets):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, took = run_once(args.workload, seed, seconds)
            worst = max(worst, took)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"set {s} seed {seed}: {took:.1f}s " +
                  " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        meds = {}
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'max/min':>8}")
        for name, xs in values.items():
            med, q1, q3, spread, ratio = summarize(xs)
            meds[name] = med
            flag = ""
            if spread > bounds[name]:
                flag = "BREAKS"
            elif spread > bounds[name] / 3:
                flag = "WIDE"
            print(f"{name:<16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[name]:6.3f} {ratio:8.4f} {flag}")
        medians.append(meds)
    if len(medians) > 1:
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        for name in bounds:
            a, b = medians[0][name], medians[-1][name]
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            flag = "BREAKS" if worse > bounds[name] else ""
            print(f"second vs first median {name:<16} {worse:+.4f} (bound {bounds[name]}) {flag}")
    print(f"slowest run {worst:.1f}s")


if __name__ == "__main__":
    main()
