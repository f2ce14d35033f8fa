#!/usr/bin/env python3
"""Benchmark entry point: build herobench from this checkout, run one workload.

    python3 herobench/run.py --workload train_hero --seed 1 --seconds 10 --trace 0

Run from the checkout root. The first run configures and builds herobench/
(CMake, which builds the repository's own sources) into .bench_build/; later
runs only rebuild what changed. The binary reads its metric catalog from
BENCHMARK.json and prints the result JSON as its last stdout line. Exit code:
the binary's, or 1 when the build fails or the run times out.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "herobench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "herobench")
RUN_TIMEOUT_S = 175


def build():
    """Configures on first use, then builds the benchmark binary; logs to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "herobench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", os.path.join(BUILD, "out")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
