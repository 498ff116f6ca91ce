#!/usr/bin/env python3
"""Run each workload several times and print each metric's quartiles.

    python3 perfbench/quartiles.py [--runs 10] [--first-seed 1]
                                   [--seconds 20] [--trace 0]
                                   [--workload NAME ...]

Run from the root of a checkout. Each run uses the next seed, so the
spread printed is across inputs as well as across repetitions: for each
metric the first quartile, median and third quartile (Python's
statistics.quantiles with n=4), and the distance between the quartiles
as a share of the median. A run that fails its checks is reported and
left out of the figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv-batched", "txn-contended", "sweep", "chain")


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or result is None or not result["correct"]:
        return None
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", nargs="*", default=list(WORKLOADS),
                   choices=WORKLOADS)
    args = p.parse_args()
    status = 0
    for workload in args.workload:
        values, shares = {}, set()
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, args.seconds, args.trace)
            if r is None:
                print(f"{workload}: seed {seed} FAILED its checks")
                status = 1
                continue
            shares.add((r["failed"], r["attempted"]))
            for name, m in r["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}; failed share(s) "
              + ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
        print(f"{'metric':44} {'unit':>6} {'q1':>14} {'median':>14} "
              f"{'q3':>14} {'iqr/med':>8}")
        for name, (unit, vs) in sorted(values.items()):
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:44} {unit:>6} {q1:14.6g} {med:14.6g} {q3:14.6g} "
                  f"{spread:8.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
