#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The library is compiled from ../src together with the driver into
.bench_build/perfbench (CMake, Release). A run then starts two processes:
the first writes the reference answers of the workload's distinct requests,
the second sets up the system under test, checks every distinct request
against those answers and measures. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit code: 0 on a correct run, 1 when an answer differs from the reference,
2 when the benchmark cannot be built or run.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Runs cmd to completion; a process past its timeout is killed and
    waited for."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    return proc.returncode, out


def build(target):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources at %s" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        left = max(1, int(deadline - time.monotonic()))
        code, out = run(cmd, left, stdout=subprocess.PIPE,
                        stderr=subprocess.STDOUT)
        if code != 0:
            sys.stderr.write(out.decode(errors="replace")[-4000:])
            fail("build step failed: %s" % " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        code, _ = run([binary], RUN_TIMEOUT_S)
        sys.exit(code)
    if not args.workload:
        fail("--workload is required")

    binary = build("perfbench")
    out_dir = os.path.join(ROOT, ".bench_build", "runs")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    reference = os.path.join(out_dir, tag + ".reference")
    record = os.path.join(out_dir, tag + ".json")
    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    code, _ = run([binary] + common + ["--reference-out", reference],
                  RUN_TIMEOUT_S)
    if code != 0:
        fail("computing the reference answers failed (exit %d)" % code)
    left = max(1, int(RUN_TIMEOUT_S - (time.monotonic() - start)))
    code, _ = run([binary] + common +
                  ["--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--reference-in", reference, "--record", record], left)
    sys.exit(code)


if __name__ == "__main__":
    main()
