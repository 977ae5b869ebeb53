//===- Workloads.h - The benchmark's workloads -------------------*- C++ -*-===//
//
// Part of the selgen benchmark harness.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload sets up, checks its outputs against the oracle, runs
/// whole rounds of its operations for Options::Seconds, and fills an
/// Outcome with every end-to-end metric (and, when tracing, the
/// per-layer metrics it can observe). README.md describes the inputs.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_PERFBENCH_WORKLOADS_H
#define SELGEN_PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

Outcome runCompileVariants(const Options &Opt);
Outcome runServeTiling(const Options &Opt);
Outcome runSynthCold(const Options &Opt);

/// Writes serve-tiling's library to \p OutPath: bench_85's inflated
/// variants of the shipped full w8 library, kept only when
/// PatternVerifier proves them against their goal. With \p Verify
/// false every variant is kept (bench_85's unsound library, used by
/// the self-test). Returns a process exit code.
int makeServeLibrary(const Options &Opt, const std::string &OutPath,
                     bool Verify);

} // namespace perfbench

#endif // SELGEN_PERFBENCH_WORKLOADS_H
