//===- ServeLibrary.cpp - serve-tiling's sound library ---------------------===//
//
// Part of the selgen benchmark harness.
//
// bench_80 and bench_85 reach paper-scale libraries by mutating the
// constants and swapping the operands of shipped rules, and never check
// the result against the goal, so most variants are unsound and the
// code selected with them is wrong. serve-tiling's library keeps only
// the variants PatternVerifier proves; regenerate it with
//
//   python3 perfbench/run.py --make-serve-library perfbench/data/serve-library-w8.dat
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "smt/SmtContext.h"
#include "support/Rng.h"
#include "synth/Cegis.h"
#include "x86/Goals.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

using namespace perfbench;
using namespace selgen;

namespace {

/// A copy of bench/bench_85_server_latency.cpp's inflate(), so the
/// generated variants are exactly the ones that benchmark serves.
PatternDatabase inflateLikeBench85(const PatternDatabase &Base,
                                   size_t TargetSize) {
  PatternDatabase Inflated;
  for (const Rule &R : Base.rules())
    Inflated.add(R.GoalName, R.Pattern.clone());
  Rng Random(0xBEEF);
  size_t Stuck = 0;
  while (Inflated.size() < TargetSize && Stuck < 10 * TargetSize) {
    for (const Rule &R : Base.rules()) {
      if (Inflated.size() >= TargetSize)
        break;
      Graph Clone = R.Pattern.clone();
      bool Mutated = false;
      for (Node *N : Clone.liveNodes()) {
        if (N->opcode() == Opcode::Const) {
          N->setConstValue(Random.nextBitValue(N->constValue().width()));
          Mutated = true;
        } else if (N->numOperands() == 2 && Random.nextBelow(2) == 1) {
          NodeRef A = N->operand(0), B = N->operand(1);
          if (A.Def->resultSort(A.Index) == B.Def->resultSort(B.Index)) {
            N->setOperand(0, B);
            N->setOperand(1, A);
            Mutated = true;
          }
        }
      }
      if (!Mutated)
        continue;
      if (!Inflated.add(R.GoalName, std::move(Clone)))
        ++Stuck;
    }
  }
  return Inflated;
}

} // namespace

int perfbench::makeServeLibrary(const Options &Opt, const std::string &OutPath,
                                bool Verify) {
  PatternDatabase Full = PatternDatabase::loadFromFile(
      Opt.RepoRoot + "/artifacts/rule-library-full-w8.dat");
  Full.filterNonNormalized();
  Full.sortSpecificFirst();
  PatternDatabase Inflated = inflateLikeBench85(Full, 12000);
  if (!Verify) {
    Inflated.saveToFile(OutPath);
    std::printf("wrote %zu unverified rules to %s\n", Inflated.size(),
                OutPath.c_str());
    return 0;
  }

  // bench_00 synthesizes these goals with the total-pattern policy, so
  // their variants must be total too.
  const std::vector<std::string> TotalModeGoals = {
      "andn", "blsr", "blsi", "blsmsk", "test_je", "test_jne", "test_js",
      "test_jns"};
  GoalLibrary Goals = GoalLibrary::build(Width, GoalLibrary::allGroups());
  SmtContext Smt;
  std::map<std::string, std::unique_ptr<PatternVerifier>> Verifiers;
  PatternDatabase Sound;
  size_t Rejected = 0, Index = 0;
  for (const Rule &R : Inflated.rules()) {
    if (++Index % 1000 == 0)
      std::fprintf(stderr, "verified %zu of %zu\n", Index, Inflated.size());
    const GoalInstruction *Goal = Goals.find(R.GoalName);
    if (!Goal) {
      ++Rejected;
      continue;
    }
    std::unique_ptr<PatternVerifier> &V = Verifiers[R.GoalName];
    if (!V) {
      bool Total = std::find(TotalModeGoals.begin(), TotalModeGoals.end(),
                             R.GoalName) != TotalModeGoals.end();
      V = std::make_unique<PatternVerifier>(Smt, Width, *Goal->Spec, 20000,
                                            Total);
    }
    if (V->verify(R.Pattern))
      Sound.add(R.GoalName, R.Pattern.clone());
    else
      ++Rejected;
  }
  Sound.saveToFile(OutPath);
  std::printf("inflated %zu rules; kept %zu proven sound, rejected %zu; "
              "wrote %s\n",
              Inflated.size(), Sound.size(), Rejected, OutPath.c_str());
  return 0;
}
