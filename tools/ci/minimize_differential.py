#!/usr/bin/env python3
"""Library-minimization differential for the selgen tools.

Minimizes each rule library with selgen-minimize and checks that the
deletions are sound and preserve selection:

  * the certificate file records its "deletions";
  * the full w8 library sheds at least 50 rules;
  * re-linting the minimized library (selgen-lint) finds no
    shadowed-rule and no cost-dominated rule: the pass reached its
    fixpoint;
  * selgen-compile --dump-asm emits the same listings for the minimized
    library as for the original (the control) on every workload,
    except for the first line, which names the selector;
  * the minimized library's automaton (selgen-matchergen) has no more
    states than the control's.

  minimize_differential.py --bin-dir build/tools --work-dir DIR [LIB.dat ...]

With no library arguments it checks the two shipped w8 libraries
(artifacts/rule-library-{basic,full}-w8.dat); the 50-deletion floor
applies to a library named rule-library-full-w8.dat.

Exit codes: 0 all checks pass, 1 a failed check or a tool failure.
"""

import argparse
import json
import os
import re
import sys

from matcher_differential import (DEFAULT_LIBRARIES, bodies, differing,
                                  library_tag, read_listings, run)

MIN_DELETIONS = {"rule-library-full-w8": 50}


def check_library(bin_dir, work_dir, library):
    tag = library_tag(library)
    base = os.path.join(work_dir, tag)
    os.makedirs(base, exist_ok=True)
    tool = lambda name: os.path.join(bin_dir, name)
    minimized = os.path.join(base, "minimized.dat")
    certificates = os.path.join(base, "certificates.json")
    relint = os.path.join(base, "relint.json")
    problems = []

    run([tool("selgen-minimize"), "--library", library, "--width", "8",
         "--output", minimized, "--certificate", certificates,
         "--stats-json", os.path.join(base, "minimize-stats.json")])
    with open(certificates) as f:
        certificate_text = f.read()
    if '"deletions"' not in certificate_text:
        problems.append("certificate file has no \"deletions\"")
    deleted = re.search(r'"deleted": ([0-9]+)', certificate_text)
    deleted = int(deleted.group(1)) if deleted else 0
    if deleted < MIN_DELETIONS.get(tag, 0):
        problems.append("shed only %d rules (< %d)" %
                        (deleted, MIN_DELETIONS[tag]))

    run([tool("selgen-lint"), "--library", minimized, "--width", "8",
         "--output", relint, "--quiet"])
    with open(relint) as f:
        relint_text = f.read()
    problems += ["minimized library still has %s findings" % code
                 for code in ("shadowed-rule", "cost-dominated")
                 if code in relint_text]

    listings, states = {}, {}
    for name, lib in (("control", library), ("minimized", minimized)):
        asm_dir = os.path.join(base, name)
        os.makedirs(asm_dir, exist_ok=True)
        run([tool("selgen-compile"), "--library", lib, "--dump-asm", asm_dir])
        listings[name] = bodies(read_listings(asm_dir))
        stats_path = os.path.join(base, name + "-matchergen.json")
        run([tool("selgen-matchergen"), "--library", lib, "--output",
             os.path.join(base, name + ".matb"), "--stats-json",
             stats_path])
        with open(stats_path) as f:
            states[name] = json.load(f)["counters"]["automaton.states"]
    if len(listings["control"]) != 11:
        problems.append("expected 11 workloads, got %d listings" %
                        len(listings["control"]))
    differ = differing(listings["minimized"], listings["control"])
    if differ:
        problems.append("minimized machine code differs from the control "
                        "on %s" % ", ".join(differ))
    if states["minimized"] > states["control"]:
        problems.append("minimization grew the automaton")
    for problem in problems:
        sys.stderr.write("%s: %s\n" % (tag, problem))
    print("%s: %d rules deleted, automaton states %d -> %d, %s" %
          (tag, deleted, states["control"], states["minimized"],
           "FAILED" if problems else "identical"))
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding selgen-minimize, "
                        "selgen-lint, selgen-compile and selgen-matchergen")
    parser.add_argument("--work-dir", required=True,
                        help="scratch directory for libraries and listings")
    parser.add_argument("libraries", nargs="*", default=DEFAULT_LIBRARIES)
    args = parser.parse_args()
    ok = all([check_library(args.bin_dir, args.work_dir, lib)
              for lib in args.libraries])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
