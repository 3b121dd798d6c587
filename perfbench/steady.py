#!/usr/bin/env python3
"""Steadiness check: repeats the benchmark and reports each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workloads tpca_rlvm,durable_txn]
                                [--seed-base 1] [--seconds 10] [--trace 0]

Runs perfbench/run.py --runs times per workload, interleaving the workloads
(run i of every workload before run i+1 of any) and giving run i the seed
seed-base + i. Prints, per workload and metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, next to the
metric's bound from BENCHMARK.json: a spread within a third of the bound is
steady. Exits non-zero if any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            seed = args.seed_base + i
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", repr(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.stdout.write(done.stdout)
                sys.exit("steady: %s seed %d failed (exit %d)" % (workload, seed,
                                                                 done.returncode))
            result = json.loads(done.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print("run %d %s seed %d: %s" % (i, workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)

    print("\n%-14s %-34s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload in workloads:
        for name, vals in values[workload].items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            print("%-14s %-34s %12.6g %12.6g %12.6g %8.4f %6s" % (
                workload, name, median, q1, q3, spread, "" if bound is None else bound))


if __name__ == "__main__":
    main()
