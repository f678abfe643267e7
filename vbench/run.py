#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 vbench/run.py --workload paper-mix --seed 1 --seconds 10 --trace 0
    python3 vbench/run.py --self-test

Run from the repository root.  The first call configures and builds
vbench_run (and the simulator library, compiled from src/) under
.bench_build/vbench; later calls only rebuild what changed.  Build
output goes to stderr, so the JSON result stays the last line of stdout.
See vbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "vbench")
PROGRAM = os.path.join(BUILD, "vbench_run")
WORKLOADS = ("paper-mix", "compute-fleet", "fork-churn")
# Upper bound on one run of the program.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; serialised by a lock."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check counter determinism and seed plumbing")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    if not build():
        print("vbench: build failed", file=sys.stderr)
        return 2

    if args.self_test:
        cmd = [PROGRAM, "--self-test"]
    else:
        cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = os.path.join(BUILD, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans", os.path.join(
                spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    # Benchmark the library's defaults: drop every VVAX_* knob (fault
    # plans, tier overrides, reference path) the caller may have set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VVAX_")}
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("vbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
