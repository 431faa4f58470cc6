#!/usr/bin/env python3
"""Builds the plan-request benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The build goes to .bench_build/perfbench (CMake, Release). Build output goes
to standard error; standard output is the benchmark's report, whose last
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is the benchmark's: 0 only when every output check
passed. A failed build exits 1 without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "plan_bench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run measures at most 60 s and bounds its own set-up and checks; this
# only guards against a hang.
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds plan_bench; returns True on success."""
    steps = [
        ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "plan_bench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"run.py: cannot run {step[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS and
            isinstance(result["correct"], bool) and
            isinstance(result["attempted"], int) and
            isinstance(result["failed"], int) and
            isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload and output check briefly")
    args = parser.parse_args()

    if args.self_check:
        command = [BINARY, "--self-check"]
    else:
        if (args.workload is None or args.seed is None or
                args.seconds is None or args.trace is None):
            parser.error("--workload, --seed, --seconds and --trace are "
                         "required")
        if args.seed < 0 or not 1 <= args.seconds <= 60:
            parser.error("--seed must be >= 0 and --seconds in 1..60")
        command = [BINARY, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]

    if not build():
        return 1
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in time", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if not lines or not valid_result(lines[-1]):
        sys.stdout.write(done.stdout)
        print("run.py: the benchmark printed no valid result line",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
