#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness (perfbench/CMakeLists.txt, which compiles the planner's
sources from src/) into .bench_build/perfbench under the checkout root, then
runs one workload.  The harness prints human-readable lines and, last, one
JSON object with the keys correct, attempted, failed and metrics.  Exit code:
0 when every answer was right, 1 on a wrong answer, a failed build or a
missing source tree (then no JSON line is printed).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("table2-replay", "table2-slrg", "service-mixed")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no planner sources (src/) next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_harness"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench_harness")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        harness = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", os.path.join(HERE, "data")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: harness timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: harness failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
