#!/usr/bin/env python3
"""Builds the PDX library and the benchmark program, then runs one workload.

    python3 pdxbench/run.py --workload exact-flat --seed 1 --seconds 15 --trace 0
    python3 pdxbench/run.py --selftest

Run from the root of a source checkout. The build goes to
.bench_build/pdxbench; snapshot files and trace output go under it too.
The program's last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics (see pdxbench/README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pdxbench")
PROGRAM = os.path.join(BUILD, "pdxbench")
WORKLOADS = ("exact-flat", "ann-wire", "live-mixed", "u8-batch")
RUN_TIMEOUT_S = 170


def log(message):
    print("pdxbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; False when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no CMakeLists.txt at the checkout root; nothing to build")
        return False
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "pdxbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return os.path.isfile(PROGRAM)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the oracle rejects corrupted answers")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2

    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    command = [PROGRAM, "--workdir", workdir]
    if args.selftest:
        command.append("--selftest")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace",
                    str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("program did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log("program exited with code %d" % done.returncode)
        return done.returncode or 4
    result = json.loads(lines[-1])
    if not args.selftest:
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            log("malformed result line")
            return 5
        if args.trace:
            trace_file = os.path.join(BUILD, "trace-%s-%d.json" %
                                      (args.workload, args.seed))
            with open(trace_file, "w") as out:
                json.dump(result, out, indent=1, sort_keys=True)
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
