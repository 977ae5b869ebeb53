#!/usr/bin/env python3
"""Matcher-automaton differential for the selgen tools.

Compiles every workload with each rule library under four selector
configurations and requires identical machine code from all of them:

  linear   selgen-compile --selector linear (the paper's rule scan)
  auto     selgen-compile (automaton built in memory)
  matb     selgen-compile --automaton IMAGE, IMAGE written by
           selgen-matchergen
  tiling   selgen-compile --selector tiling --cost-model unit

  matcher_differential.py --bin-dir build/tools --work-dir DIR [LIB.dat ...]

With no library arguments it checks the two shipped w8 libraries
(artifacts/rule-library-{basic,full}-w8.dat). For each library it
compares the `--dump-asm` listings of all workloads byte for byte,
except for the first line, which names the selector; compares the
Benchmark table rows (coverage, cycles, check) with padding squeezed;
and requires the matcher counters in the --stats-json of both
automaton runs.

Exit codes: 0 all configurations agree, 1 a difference, a missing
counter or a tool failure.
"""

import argparse
import json
import os
import re
import subprocess
import sys

SRC_DIR = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DEFAULT_LIBRARIES = [
    os.path.join(SRC_DIR, "artifacts", "rule-library-%s-w8.dat" % Kind)
    for Kind in ("basic", "full")
]
COUNTERS = ["automaton.states", "automaton.transitions",
            "selector.rules_tried", "matcher.nodes_visited",
            "selector.select_us"]
ROW = re.compile(r"^[0-9]+\.")


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          universal_newlines=True)
    if proc.returncode != 0:
        sys.stderr.write("command failed (%d): %s\n%s" %
                         (proc.returncode, " ".join(cmd), proc.stderr))
        sys.exit(1)
    return proc.stdout


def listing_bodies(asm_dir):
    bodies = {}
    for name in sorted(os.listdir(asm_dir)):
        with open(os.path.join(asm_dir, name)) as f:
            bodies[name] = f.read().split("\n", 1)[-1]
    return bodies


def table_rows(stdout):
    return [" ".join(line.split()) for line in stdout.splitlines()
            if ROW.match(line)]


def check_library(bin_dir, work_dir, library):
    tag = os.path.splitext(os.path.basename(library))[0]
    base = os.path.join(work_dir, tag)
    os.makedirs(base, exist_ok=True)
    compile_tool = os.path.join(bin_dir, "selgen-compile")
    image = os.path.join(base, "automaton.matb")
    run([os.path.join(bin_dir, "selgen-matchergen"), "--library", library,
         "--output", image])

    configs = {
        "linear": ["--selector", "linear"],
        "auto": [],
        "matb": ["--automaton", image],
        "tiling": ["--selector", "tiling", "--cost-model", "unit"],
    }
    listings, rows, stats = {}, {}, {}
    for name, flags in configs.items():
        asm_dir = os.path.join(base, name)
        stats_path = os.path.join(base, name + ".json")
        os.makedirs(asm_dir, exist_ok=True)
        stdout = run([compile_tool, "--library", library, "--dump-asm",
                      asm_dir, "--stats-json", stats_path] + flags)
        listings[name] = listing_bodies(asm_dir)
        rows[name] = table_rows(stdout)
        with open(stats_path) as f:
            stats[name] = json.load(f).get("counters", {})

    ok = True
    if len(listings["linear"]) != 11 or len(rows["linear"]) != 11:
        sys.stderr.write("%s: expected 11 workloads, got %d listings and "
                         "%d table rows\n" % (tag, len(listings["linear"]),
                                               len(rows["linear"])))
        ok = False
    for name in configs:
        if listings[name] != listings["linear"]:
            differing = sorted(
                w for w in set(listings[name]) | set(listings["linear"])
                if listings[name].get(w) != listings["linear"].get(w))
            sys.stderr.write("%s: %s machine code differs from linear on "
                             "%s\n" % (tag, name, ", ".join(differing)))
            ok = False
        if rows[name] != rows["linear"]:
            sys.stderr.write("%s: %s table rows differ from linear\n" %
                             (tag, name))
            ok = False
    for name in ("auto", "matb"):
        for counter in COUNTERS:
            if counter not in stats[name]:
                sys.stderr.write("%s: %s run lacks counter %s in its stats "
                                 "JSON\n" % (tag, name, counter))
                ok = False
    print("%s: %s on %d workloads" %
          (tag, "identical" if ok else "DIFFERS", len(listings["linear"])))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding selgen-compile and "
                        "selgen-matchergen")
    parser.add_argument("--work-dir", required=True,
                        help="scratch directory for images and listings")
    parser.add_argument("libraries", nargs="*", default=DEFAULT_LIBRARIES)
    args = parser.parse_args()
    ok = all([check_library(args.bin_dir, args.work_dir, lib)
              for lib in args.libraries])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
