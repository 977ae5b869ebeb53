#!/usr/bin/env python3
"""Builds the selgen benchmark harness from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload compile-variants --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --make-serve-library perfbench/data/serve-library-w8.dat

The harness and the selgen libraries it links are built with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the current directory;
scratch files go to a per-run directory there and are removed at exit.
The last line of standard output is the run's JSON result (see README.md).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-variants", "serve-tiling", "synth-cold")
BUILD_TIMEOUT_S = 850
# Time a run may take beyond --seconds: set-up, the checks, and a round
# (one cold synthesis on synth-cold) started just before the run length.
RUN_MARGIN_S = 158


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures once, then lets CMake rebuild whatever is out of date."""
    os.makedirs(bdir, exist_ok=True)
    cmake_dir = os.path.join(bdir, "perfbench")
    with open(os.path.join(bdir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target",
                      "selgen-perfbench", "-j", "4"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(step))
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "selgen-perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--library", help="replace the workload's rule library")
    parser.add_argument("--make-serve-library", metavar="OUT")
    parser.add_argument("--unverified", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("selgen sources not found next to %s; run from a full checkout" % HERE)

    bdir = build_dir()
    binary = build(bdir)
    common = ["--repo-root", ROOT]

    if args.make_serve_library:
        cmd = [binary, "--make-serve-library",
               os.path.abspath(args.make_serve_library)] + common
        if args.unverified:
            cmd.append("--unverified")
        sys.exit(subprocess.run(cmd).returncode)

    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    work = os.path.join(bdir, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work] + common
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.library:
        cmd += ["--library", os.path.abspath(args.library)]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %g s" % timeout, 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
