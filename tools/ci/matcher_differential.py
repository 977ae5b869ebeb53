#!/usr/bin/env python3
"""Matcher-automaton differential for the selgen tools.

Compiles every workload with each rule library under nine selector
configurations of selgen-compile: linear (the paper's rule scan), auto
(automaton built in memory), matb (--automaton IMAGE, written by
selgen-matchergen), and --selector tiling under the unit, latency and
size cost models (tiling, latency, size), each also over IMAGE (-matb).

  matcher_differential.py --bin-dir build/tools --work-dir DIR
      [--golden SHA256S] [LIB.dat ...]

With no library arguments it checks the two shipped w8 libraries
(artifacts/rule-library-{basic,full}-w8.dat). For each library:

  * the first-match and unit-tiling configurations emit `--dump-asm`
    listings identical to linear's on every workload, except for the
    first line, which names the selector, and identical Benchmark table
    rows (coverage, cycles, check) with padding squeezed;
  * no configuration's table has a MISMATCH row (the emulator disagrees
    with the IR interpreter on return value or final memory);
  * both automaton runs report the matcher counters in --stats-json;
  * with --golden, every latency and size listing, header line
    included, has the sha256 the file records for
    <library>/<model>/<workload>.s (libraries the file does not name are
    not checked).

Exit codes: 0 all checks pass, 1 a difference, a missing counter or a
tool failure.
"""

import argparse
import hashlib
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


def library_tag(path):
    return os.path.splitext(os.path.basename(path))[0]


def read_listings(asm_dir):
    listings = {}
    for name in sorted(os.listdir(asm_dir)):
        with open(os.path.join(asm_dir, name)) as f:
            listings[name] = f.read()
    return listings


def bodies(listings):
    """The listings minus their header line, which names the selector."""
    return {name: text.split("\n", 1)[-1] for name, text in listings.items()}


def differing(a, b):
    """Sorted keys whose values differ (or exist on one side only)."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def table_rows(stdout):
    return [" ".join(line.split()) for line in stdout.splitlines()
            if ROW.match(line)]


def check_library(bin_dir, work_dir, library, golden):
    tag = library_tag(library)
    base = os.path.join(work_dir, tag)
    os.makedirs(base, exist_ok=True)
    image = os.path.join(base, "automaton.matb")
    run([os.path.join(bin_dir, "selgen-matchergen"), "--library", library,
         "--output", image])

    tiling = ["--selector", "tiling", "--cost-model"]
    matb = ["--automaton", image]
    configs = {
        "linear": ["--selector", "linear"],
        "auto": [],
        "matb": matb,
        "tiling": tiling + ["unit"],
        "tiling-matb": matb + tiling + ["unit"],
        "latency": tiling + ["latency"],
        "latency-matb": matb + tiling + ["latency"],
        "size": tiling + ["size"],
        "size-matb": matb + tiling + ["size"],
    }
    listings, rows, stats = {}, {}, {}
    for name, flags in configs.items():
        asm_dir = os.path.join(base, name)
        stats_path = os.path.join(base, name + ".json")
        os.makedirs(asm_dir, exist_ok=True)
        stdout = run([os.path.join(bin_dir, "selgen-compile"), "--library",
                      library, "--dump-asm", asm_dir, "--stats-json",
                      stats_path] + flags)
        listings[name] = read_listings(asm_dir)
        rows[name] = table_rows(stdout)
        with open(stats_path) as f:
            stats[name] = json.load(f).get("counters", {})

    problems = []
    if len(listings["linear"]) != 11 or len(rows["linear"]) != 11:
        problems.append("expected 11 workloads, got %d listings and %d "
                        "table rows" % (len(listings["linear"]),
                                        len(rows["linear"])))
    for name in ("auto", "matb", "tiling", "tiling-matb"):
        differ = differing(bodies(listings[name]),
                           bodies(listings["linear"]))
        if differ:
            problems.append("%s machine code differs from linear on %s" %
                            (name, ", ".join(differ)))
        if rows[name] != rows["linear"]:
            problems.append("%s table rows differ from linear" % name)
    for name in configs:
        problems += ["%s: %s" % (name, row) for row in rows[name]
                     if "MISMATCH" in row]
    for name in ("latency", "latency-matb", "size", "size-matb"):
        prefix = "%s/%s/" % (tag, name.split("-")[0])
        expected = {key[len(prefix):]: digest
                    for key, digest in golden.items()
                    if key.startswith(prefix)}
        actual = {w: hashlib.sha256(text.encode()).hexdigest()
                  for w, text in listings[name].items()}
        differ = differing(actual, expected) if expected else []
        if differ:
            problems.append("%s listings differ from the golden sha256 on "
                            "%s" % (name, ", ".join(differ)))
    for name in ("auto", "matb"):
        problems += ["%s run lacks counter %s in its stats JSON" %
                     (name, counter)
                     for counter in COUNTERS if counter not in stats[name]]
    for problem in problems:
        sys.stderr.write("%s: %s\n" % (tag, problem))
    print("%s: %s on %d workloads" %
          (tag, "DIFFERS" if problems else "identical",
           len(listings["linear"])))
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding selgen-compile and "
                        "selgen-matchergen")
    parser.add_argument("--work-dir", required=True,
                        help="scratch directory for images and listings")
    parser.add_argument("--golden",
                        help="sha256 manifest of latency and size tiling "
                        "listings (tests/data/tiling-golden-w8.sha256)")
    parser.add_argument("libraries", nargs="*", default=DEFAULT_LIBRARIES)
    args = parser.parse_args()
    golden = {}
    if args.golden:
        with open(args.golden) as f:
            golden = {key: digest for digest, key in map(str.split, f)}
    unchecked = ({key.split("/")[0] for key in golden} -
                 {library_tag(lib) for lib in args.libraries})
    if unchecked:
        sys.stderr.write("golden manifest names libraries not checked: "
                         "%s\n" % ", ".join(sorted(unchecked)))
        return 1
    ok = all([check_library(args.bin_dir, args.work_dir, lib, golden)
              for lib in args.libraries])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
