#!/usr/bin/env python3
"""Host-time benchmark of the LVM reproduction: build, run one workload, check.

    python3 perfbench/run.py --workload tpca_rlvm --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a CMake project over the repository's src/) in Release
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload with the given seed for the given seconds, and relays its output.
The last line is the result: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the run also writes its spans as Chrome trace-event JSON to
<build>/traces/<workload>-seed<seed>.json (open it at ui.perfetto.dev).
Exits non-zero when the build fails, a correctness check fails, or the
result line is malformed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpca_rlvm", "par_append_1w", "durable_txn")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no LVM sources under %s/src; nothing to build" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "lvm_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))
    return os.path.join(out, "lvm_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--data-dir", os.path.join(out, "data")]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        command += ["--chrome-trace", os.path.join(
            out, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        keys_ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        result, keys_ok = None, False
    if not keys_ok:
        for line in lines[-1:]:
            print(line)
        sys.exit("perfbench: the benchmark printed no valid result line (exit %d)"
                 % done.returncode)
    want = expected_metrics(args.trace)
    if want is not None and want != set(result["metrics"]):
        print(lines[-1])
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s"
                 % sorted(want ^ set(result["metrics"])))
    print(lines[-1])
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(done.returncode or 1)


if __name__ == "__main__":
    main()
