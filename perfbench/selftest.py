#!/usr/bin/env python3
"""Self-test of the selgen benchmark at reduced length.

  python3 perfbench/selftest.py

Run from the repository root. It builds the harness (through run.py) and:

  1. runs every workload untraced and traced for one second each and
     checks the result line: correct, attempted >= 1, exactly the metric
     names and units BENCHMARK.json declares, no zero end-to-end metric,
     and the same failed share on two seeds and on the traced run;
  2. feeds bench_85's unverified inflated library to compile-variants
     and serve-tiling and requires both to report wrong code;
  3. runs the benchmark in a directory holding only BENCHMARK.json and
     perfbench/, where it must fail without printing a result.

synth-cold runs its full goal set, so each of its runs makes one cold
and one warm round (about 60 s). Scratch files go under
.bench_build/selftest/. Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

failures = []


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def run(args, cwd=ROOT, script=RUN):
    done = subprocess.run(script + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900)
    lines = done.stdout.decode().strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stderr.decode()


def workload_run(workload, seed, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)] + list(extra)
    return run(args)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    scratch = os.path.join(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build"), "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)

    # 1. Every workload, untraced and traced.
    for w in spec["workloads"]:
        name = w["name"]
        shares = []
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            code, result, err = workload_run(name, seed, trace)
            tag = "%s seed %d trace %d" % (name, seed, trace)
            check(code == 0 and result is not None, tag + ": exits 0 with a result")
            if result is None:
                sys.stderr.write(err[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result has exactly the four keys")
            check(result["correct"] is True, tag + ": outputs are correct")
            check(result["attempted"] >= 1, tag + ": attempted >= 1")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  tag + ": metric names and units match BENCHMARK.json")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if v["value"] <= 0]
                check(not zero, tag + ": no end-to-end metric reads 0 %s" % zero)
            shares.append(Fraction(result["failed"], max(result["attempted"], 1)))
        check(len(set(shares)) <= 1,
              name + ": failed share is the same on every run %s" %
              [str(s) for s in shares])
        if name == "compile-variants" and shares:
            check(shares[0] > 0, name + ": the load-fold fault shows as failed "
                  "operations")

    # 2. Known-wrong library: bench_85's unverified inflation.
    unverified = os.path.join(scratch, "unverified-w8.dat")
    code, _, err = run(["--make-serve-library", unverified, "--unverified"])
    check(code == 0 and os.path.exists(unverified),
          "unverified bench_85 library written")
    for name in ("compile-variants", "serve-tiling"):
        code, result, err = workload_run(name, 1, 0, ["--library", unverified])
        reported = result is not None and result["correct"] is False \
            and "CHECK FAILED" in err
        check(reported, name + ": the unverified library's wrong code is "
              "reported")
        if name == "compile-variants" and result is not None:
            check(result["failed"] > 0, name + ": its wrong code counts as "
                  "failed operations (%d of %d)" %
                  (result["failed"], result["attempted"]))

    # 3. Only BENCHMARK.json and perfbench/: must fail without a result.
    bare = os.path.join(scratch, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(["--workload", "compile-variants", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare,
                          script=[sys.executable,
                                  os.path.join(bare, "perfbench", "run.py")])
    check(code != 0 and result is None,
          "a directory without the sources fails without a result")
    shutil.rmtree(scratch, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
