//===- Common.h - Shared pieces of the benchmark workloads -------*- C++ -*-===//
//
// Part of the selgen benchmark harness.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run options, the result record every workload fills, percentile
/// helpers, and the correctness oracle: selected machine code run on
/// the x86 emulator must agree with the IR interpreter on return
/// values, final memory and termination. The oracle is the
/// computation made apart from the code under test (the selector).
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_PERFBENCH_COMMON_H
#define SELGEN_PERFBENCH_COMMON_H

#include "eval/Workloads.h"
#include "ir/Function.h"
#include "ir/Memory.h"
#include "isel/PreparedLibrary.h"
#include "matchergen/BinaryAutomaton.h"
#include "pattern/PatternDatabase.h"
#include "support/BitValue.h"
#include "x86/Goals.h"
#include "x86/MachineIR.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

constexpr unsigned Width = 8;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RepoRoot; ///< Directory holding src/ and artifacts/.
  std::string WorkDir;  ///< Scratch directory for images and caches.
  std::string TracePath;
  /// Replaces the workload's rule library (self-test: known-wrong
  /// libraries must be caught by the checks).
  std::string LibraryOverride;
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> PerLayer;

  /// Records a failed check: prints it and clears Correct.
  void problem(const std::string &Message);
};

/// Nearest-rank percentile (\p P in [0, 1]) of \p Values; 0 if empty.
double percentile(std::vector<double> Values, double P);
double median(std::vector<double> Values);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Runs \p SetUp twice to warm up, then repeatedly for at least two
/// seconds and nine times, and returns the median wall seconds of the
/// timed repetitions. The workload keeps what the last one built. A set-up
/// takes tens of milliseconds; the machine's speed swings over such short
/// windows, so a median over a few of them moved by 25% between runs.
template <typename Fn> double medianSetupSeconds(Fn &&SetUp);

/// One input set for a function: its value arguments and the 256-byte
/// region workload functions read and write.
struct CheckInput {
  std::vector<selgen::BitValue> Args;
  selgen::MemoryState Memory;
};

/// \p Count input sets of \p NumArgs arguments each, drawn from \p Seed.
/// \p Interesting biases arguments towards edge values (0, 1, -1, ...).
std::vector<CheckInput> makeCheckInputs(uint64_t Seed, unsigned Count,
                                        unsigned NumArgs = 3,
                                        bool Interesting = false);

struct CheckResult {
  bool Ok = true;
  std::string Detail;       ///< First disagreement, when !Ok.
  uint64_t Cycles = 0;      ///< Emulator cost-weighted cycles, summed.
  uint64_t IrOps = 0;       ///< Interpreter operations executed.
  double InterpSeconds = 0; ///< Interpreter wall time.
};

/// Runs \p MF on the emulator and \p F on the interpreter for every
/// input; any difference in return values, final memory or step-limit
/// outcome fails the check. An input on which the IR has undefined
/// behaviour fails too, unless \p SkipUndefined (rule test functions
/// may shift by out-of-range amounts; there is nothing to compare).
CheckResult checkAgainstInterpreter(const selgen::Function &F,
                                    const selgen::MachineFunction &MF,
                                    const std::vector<CheckInput> &Inputs,
                                    bool SkipUndefined = false);

/// Textual IR of every block body, for the re-normalization check.
std::string printFunctionIr(const selgen::Function &F);

/// \p Asm without its first line (which names the selector).
std::string withoutHeader(const std::string &Asm);

/// A cint2000 profile with a different generator seed and a loop body
/// scaled by \p Scale (1.0 = the profile's own BodyOps).
selgen::WorkloadProfile makeVariant(const selgen::WorkloadProfile &Base,
                                    uint64_t VariantSeed, double Scale);

/// A rule library as a selector runs it: loaded, filtered and sorted,
/// prepared, compiled to a matcher automaton, written as a binary
/// .matb image and mapped back.
struct LoadedLibrary {
  std::unique_ptr<selgen::GoalLibrary> Goals;
  selgen::PatternDatabase Database;
  std::unique_ptr<selgen::PreparedLibrary> Library;
  std::unique_ptr<selgen::MappedAutomaton> Image;
  size_t States = 0;
};

/// Sets \p L up from \p LibraryPath, writing the image to \p ImagePath,
/// through medianSetupSeconds; \p Seconds receives the median. Returns
/// false with \p Error set when a step fails.
bool setUpLibrary(const std::string &LibraryPath, const std::string &ImagePath,
                  LoadedLibrary &L, double &Seconds, std::string &Error);

/// Adds the per-layer metrics of setUpLibrary's steps.
void addSetUpLayers(Outcome &Out, const LoadedLibrary &L);

/// Adds \p Name (a per-layer metric) with \p Value and \p Unit.
void layer(Outcome &Out, const std::string &Name, double Value,
           const std::string &Unit);

/// Median duration of the spans named \p SpanName, in \p Unit
/// ("us" or "ms"); 0 when none were recorded.
double spanMedian(const std::string &SpanName, const std::string &Unit);

template <typename Fn> double medianSetupSeconds(Fn &&SetUp) {
  SetUp();
  SetUp();
  std::vector<double> Times;
  double Total = 0;
  while (Times.size() < 9 || Total < 2.0) {
    auto Start = std::chrono::steady_clock::now();
    SetUp();
    Times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count());
    Total += Times.back();
  }
  return median(Times);
}

} // namespace perfbench

#endif // SELGEN_PERFBENCH_COMMON_H
