#!/usr/bin/env python3
"""Steadiness report for the edsim benchmark.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2,3,4,5]
                                    [--sets 2] [--gap 60] [--seconds N]

Runs every workload once per seed, in `--sets` separate sets spaced
`--gap` seconds apart (drift between sets is what breaks a benchmark, so
the sets are not one back-to-back batch). For each (metric, workload) pair
it prints each set's median, quartiles and spread (interquartile distance
over the median, quartiles as statistics.quantiles(n=4) gives them) next
to the metric's bound from BENCHMARK.json, and the drift of each set's
median against the first set's, signed so that positive is worse.

Flags: SPREAD when a spread exceeds its bound, DRIFT
when a later set's median is worse than the first set's by more than the
bound, and TIGHT when a spread is above a third of its bound (the target).
Exits 1 when any pair is flagged SPREAD or DRIFT, or any run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--gap", type=float, default=60.0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", help="write every run's JSON result here")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]

    # results[set][workload] = list of run results, one per seed
    results = []
    incorrect = 0
    for s in range(args.sets):
        if s > 0:
            time.sleep(args.gap)
        results.append({})
        for w in workloads:
            runs = []
            for seed in seeds:
                r = run_once(w, seed, args.seconds)
                incorrect += 0 if r["correct"] and r["failed"] == 0 else 1
                runs.append(r)
                print(f"set {s} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)
            results[-1][w] = runs
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    flagged = 0
    print(f"\n{'workload':14} {'metric':18} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'drift':>8}")
    for w in workloads:
        for m in spec["end_to_end"]:
            first_med = None
            for s in range(args.sets):
                values = [r["metrics"][m["name"]]["value"]
                          for r in results[s][w]]
                med, q1, q3, sp = spread(values)
                if first_med is None:
                    first_med = med
                sign = 1.0 if m["better"] == "lower" else -1.0
                drift = sign * (med - first_med) / first_med
                flags = []
                if sp > m["bound"]:
                    flags.append("SPREAD")
                if drift > m["bound"]:
                    flags.append("DRIFT")
                if sp > m["bound"] / 3:
                    flags.append("TIGHT")
                flagged += 1 if {"SPREAD", "DRIFT"} & set(flags) else 0
                print(f"{w:14} {m['name']:18} {s:3} {med:12.5g} {q1:12.5g} "
                      f"{q3:12.5g} {sp:8.4f} {m['bound']:6.3f} "
                      f"{drift:+8.4f} {' '.join(flags)}")
    print(f"\n{flagged} pair(s) over their bound, {incorrect} incorrect run(s)")
    return 1 if flagged or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
