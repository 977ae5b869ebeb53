//===- SynthWorkload.cpp - synth-cold --------------------------------------===//
//
// Part of the selgen benchmark harness.
//
// Cold rule-library synthesis with an empty cache directory, in
// process, on one worker thread, followed by a warm rerun over the
// cache the cold run wrote. The goals are the Basic group plus the
// other goals of bench_00's default "full" set (bench/BenchCommon.cpp,
// makeBenchGoals), minus the goals that exhaust their 8 s budget:
// lea_bis4, mov_load_bis4, mov_store_bis4 and test_j{e,ne,s,ns}. A
// budget-capped goal is never cached and its output depends on timing,
// so it could not be checked.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "isel/AutomatonSelector.h"
#include "isel/SelectionEngine.h"
#include "pattern/ParallelBuilder.h"
#include "pattern/SynthesisCache.h"
#include "smt/SmtContext.h"
#include "support/Statistics.h"
#include "synth/SpecFingerprint.h"
#include "testgen/TestCaseGenerator.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

using namespace perfbench;
using namespace selgen;

namespace {

// One worker thread. On 4 threads the cold synthesis took the machine's
// every core, so any other busy process stretched it: two busy-looping
// threads beside it took it from 16.2 s to 27.5 s and the median goal
// from 287 ms to 508 ms, while on one thread it went from 59.2 s to
// 54.8 s. Runs of the same code on a shared host then spread by 35%.
constexpr unsigned SynthThreads = 1;

std::vector<std::string> goalNames(const GoalLibrary &All) {
  std::vector<std::string> Names;
  for (const GoalInstruction *Goal : All.group("Basic"))
    Names.push_back(Goal->Name);
  for (const char *Suffix : {"b", "bd", "bi", "bis2"}) {
    Names.push_back(std::string("mov_load_") + Suffix);
    Names.push_back(std::string("mov_store_") + Suffix);
  }
  for (const char *Name :
       {"mov_storei_b", "mov_storei_bd", "inc_r", "dec_r", "neg_m_b",
        "not_m_b", "inc_m_b", "dec_m_b", "add_ri", "sub_ri", "and_ri",
        "or_ri", "xor_ri", "imul_ri", "add_rm_b", "add_rm_bd", "sub_rm_b",
        "and_rm_b", "or_rm_b", "xor_rm_b", "add_mr_b", "xor_mr_b", "lea_bd",
        "lea_bid", "lea_bis2", "cmpi_je", "cmpi_jne", "cmpi_jl", "cmpi_jge",
        "cmpi_jb", "cmpi_jae", "cmove", "cmovne", "cmovl", "cmovb",
        "cmpm_b_je", "cmpm_b_jl", "andn", "blsr", "blsi", "blsmsk"})
    Names.push_back(Name);
  return Names;
}

SynthesisOptions synthesisOptions() {
  // selgen-synth's defaults, except the budget. bench_00's tighter
  // pattern caps leave many goals incomplete, and incomplete goals are
  // never cached, so a warm rerun could not be checked against the cold
  // library. blsr and blsmsk take 8-10 s each on a 4-core box, close to
  // selgen-synth's 10 s default; 30 s keeps them clear of it.
  SynthesisOptions Options;
  Options.Width = Width;
  Options.FindAllMinimal = true;
  Options.TimeBudgetSeconds = 30.0;
  Options.QueryTimeoutMs = 30000;
  return Options;
}

struct Round {
  PatternDatabase Cold;
  std::string ColdText;
  double ColdSeconds = 0;
  double WarmMs = 0;
  std::vector<GoalTelemetry> Goals;
  std::map<std::string, int64_t> Counters;
};

const char *const CounterNames[] = {
    "synth.multisets_run",       "synth.multisets_skipped",
    "prescreen.kills",           "scheduler.steals",
    "cegis.synthesis_queries",   "cegis.verification_queries",
    "smt.checks",                "smt.check_us"};

} // namespace

Outcome perfbench::runSynthCold(const Options &Opt) {
  Outcome Out;
  std::unique_ptr<GoalLibrary> Goals;
  const SynthesisOptions Options = synthesisOptions();
  // Set-up: the goal library and every goal's cache key (its spec
  // fingerprint under these options), which a run needs before it can
  // ask the cache.
  double SetupSeconds = medianSetupSeconds([&] {
    GoalLibrary All = GoalLibrary::build(Width, GoalLibrary::allGroups());
    std::vector<std::string> Names = goalNames(All);
    Goals = std::make_unique<GoalLibrary>(
        GoalLibrary::subset(std::move(All), Names));
    SmtContext Smt;
    for (const GoalInstruction &Goal : Goals->goals())
      synthesisCacheKey(Smt, *Goal.Spec, Options);
  });
  const size_t NumGoals = Goals->goals().size();

  ParallelBuildOptions Build;
  Build.NumThreads = SynthThreads;
  Build.TotalModeGoals = {"andn", "blsr", "blsi", "blsmsk"};

  // --- Timed rounds: cold synthesis, then a warm rerun ---------------------
  std::vector<Round> Rounds;
  int64_t Start = trace::nowNs();
  do {
    Round R;
    const std::string CacheDir =
        Opt.WorkDir + "/synth-cache-" + std::to_string(Rounds.size());
    std::filesystem::remove_all(CacheDir);
    Statistics::get().clear();
    {
      SynthesisCache Cache(CacheDir);
      if (!Cache.usable()) {
        Out.problem("cannot create a synthesis cache in " + CacheDir);
        return Out;
      }
      Build.Cache = &Cache;
      LibraryBuildReport Report;
      ScopedSpan Span("synth.synthesizeRuleLibraryParallel");
      int64_t ColdStart = trace::nowNs();
      R.Cold = synthesizeRuleLibraryParallel(*Goals, Options, Build, &Report);
      R.ColdSeconds = (trace::nowNs() - ColdStart) / 1e9;
    }
    R.Goals = Statistics::get().goals();
    for (const char *Name : CounterNames)
      R.Counters[Name] = Statistics::get().value(Name);
    R.ColdText = R.Cold.serialize();

    Out.Attempted += NumGoals;
    uint64_t Incomplete = 0;
    for (const GoalTelemetry &G : R.Goals)
      if (!G.Complete) {
        ++Incomplete;
        Out.problem("goal " + G.Goal + " did not complete (" +
                    G.IncompleteCause + ")");
      }
    if (R.Goals.size() != NumGoals)
      Out.problem("synthesis reported " + std::to_string(R.Goals.size()) +
                  " goals, expected " + std::to_string(NumGoals));
    Out.Failed += Incomplete;

    {
      SynthesisCache Cache(CacheDir);
      Build.Cache = &Cache;
      LibraryBuildReport Report;
      PatternDatabase Warm;
      {
        ScopedSpan Span("pattern.warmRebuild");
        int64_t WarmStart = trace::nowNs();
        Warm = synthesizeRuleLibraryParallel(*Goals, Options, Build, &Report);
        R.WarmMs = (trace::nowNs() - WarmStart) / 1e6;
      }
      if (Report.CacheMisses != 0)
        Out.problem("warm rerun missed the cache for " +
                    std::to_string(Report.CacheMisses) + " goals");
      if (Warm.serialize() != R.ColdText)
        Out.problem("warm library differs from the cold library");
    }
    Build.Cache = nullptr;
    std::filesystem::remove_all(CacheDir);
    if (!Rounds.empty() && Rounds.front().ColdText != R.ColdText)
      Out.problem("two cold syntheses produced different libraries");
    Rounds.push_back(std::move(R));
  } while ((trace::nowNs() - Start) / 1e9 < Opt.Seconds);

  // --- Checks on the synthesized library -----------------------------------
  PatternDatabase Usable = PatternDatabase::deserialize(Rounds.front().ColdText);
  Usable.filterNonNormalized();
  Usable.sortSpecificFirst();
  AutomatonSelector Selector(Usable, *Goals);

  uint64_t IrOps = 0;
  double InterpSeconds = 0;
  size_t RuleIndex = 0, Unsound = 0;
  for (const Rule &R : Usable.rules()) {
    Function F = buildPatternTestFunction(
        R, Width, "test" + std::to_string(RuleIndex));
    SelectionResult Selected = Selector.select(F);
    unsigned NumArgs = F.entry()->body().numArgs() - 1;
    CheckResult Check = checkAgainstInterpreter(
        F, *Selected.MF,
        makeCheckInputs(Opt.Seed * 7919 + RuleIndex, 4, NumArgs,
                        /*Interesting=*/true),
        /*SkipUndefined=*/true);
    IrOps += Check.IrOps;
    InterpSeconds += Check.InterpSeconds;
    if (!Check.Ok && Unsound++ < 5)
      Out.problem("rule " + std::to_string(RuleIndex) + " (" + R.GoalName +
                  "): test function disagrees with the interpreter: " +
                  Check.Detail);
    ++RuleIndex;
  }

  uint64_t DynCycles = 0, CodeInstrs = 0, Covered = 0, Fallback = 0;
  uint64_t RulesTried = 0, NodesVisited = 0;
  for (const WorkloadProfile &P : cint2000Profiles()) {
    Function F = buildWorkload(P, Width);
    SelectionObserver Observer;
    SelectionResult Selected;
    {
      ScopedSpan Span("isel.runRuleSelection");
      AutomatonCandidateSource Source(Selector.library(),
                                      Selector.automaton());
      Selected = runRuleSelection(F, Selector.library(), Source, "automaton",
                                  &Observer);
    }
    CheckResult Check =
        checkAgainstInterpreter(F, *Selected.MF, makeCheckInputs(P.Seed, 2));
    if (!Check.Ok)
      Out.problem(P.Name + ": code from the synthesized library disagrees "
                           "with the interpreter: " + Check.Detail);
    DynCycles += Check.Cycles;
    CodeInstrs += Selected.MF->numInstructions();
    Covered += Selected.CoveredOperations;
    Fallback += Selected.FallbackOperations;
    RulesTried += Observer.RulesTried;
    NodesVisited += Observer.NodesVisited;
  }

  std::vector<double> ColdSeconds, GoalMs, QueueWait;
  double GoalMax = 0;
  for (const Round &R : Rounds) {
    ColdSeconds.push_back(R.ColdSeconds);
    for (const GoalTelemetry &G : R.Goals) {
      GoalMs.push_back(G.WallSeconds * 1e3);
      QueueWait.push_back(G.QueueWaitSeconds);
      GoalMax = std::max(GoalMax, G.WallSeconds);
    }
  }
  const Round &Last = Rounds.back();
  std::vector<GoalTelemetry> Slowest = Last.Goals;
  std::sort(Slowest.begin(), Slowest.end(),
            [](const GoalTelemetry &A, const GoalTelemetry &B) {
              return A.WallSeconds > B.WallSeconds;
            });
  for (size_t I = 0; I < Slowest.size() && I < 5; ++I)
    std::fprintf(stderr, "slowest goal %zu: %s %.2f s (queued %.2f s)\n",
                 I + 1, Slowest[I].Goal.c_str(), Slowest[I].WallSeconds,
                 Slowest[I].QueueWaitSeconds);
  std::fprintf(stderr,
               "synth-cold: %zu goals, %zu rules, %zu round(s), cold %.2f s, "
               "warm %.1f ms\n",
               NumGoals, Last.Cold.size(), Rounds.size(), Last.ColdSeconds,
               Last.WarmMs);

  Out.EndToEnd["setup_s"] = {SetupSeconds, "s"};
  Out.EndToEnd["ops_per_s"] = {NumGoals / median(ColdSeconds), "1/s"};
  Out.EndToEnd["p50_ms"] = {percentile(GoalMs, 0.50), "ms"};
  Out.EndToEnd["p99_ms"] = {percentile(GoalMs, 0.99), "ms"};
  Out.EndToEnd["dyn_cycles"] = {static_cast<double>(DynCycles), "count"};
  Out.EndToEnd["code_instrs"] = {static_cast<double>(CodeInstrs), "count"};

  if (Opt.Trace) {
    auto counter = [&Last](const char *Name) {
      return static_cast<double>(Last.Counters.at(Name));
    };
    layer(Out, "synth.cold_s", Last.ColdSeconds, "s");
    layer(Out, "synth.rules", static_cast<double>(Last.Cold.size()), "count");
    layer(Out, "synth.goal_s_max", GoalMax, "s");
    layer(Out, "synth.queue_wait_s", percentile(QueueWait, 1.0), "s");
    layer(Out, "synth.multisets_run", counter("synth.multisets_run"),
          "count");
    layer(Out, "synth.multisets_skipped", counter("synth.multisets_skipped"),
          "count");
    layer(Out, "synth.prescreen_kills", counter("prescreen.kills"), "count");
    layer(Out, "synth.steals", counter("scheduler.steals"), "count");
    layer(Out, "synth.synthesis_queries", counter("cegis.synthesis_queries"),
          "count");
    layer(Out, "synth.verification_queries",
          counter("cegis.verification_queries"), "count");
    layer(Out, "smt.checks", counter("smt.checks"), "count");
    layer(Out, "smt.check_s", counter("smt.check_us") / 1e6, "s");
    layer(Out, "pattern.cache_warm_ms", Last.WarmMs, "ms");
    layer(Out, "isel.first_match_us",
          spanMedian("isel.runRuleSelection", "us"), "us");
    layer(Out, "isel.rules_tried", RulesTried / 11.0, "count/fn");
    layer(Out, "matchergen.nodes_visited", NodesVisited / 11.0, "count/fn");
    layer(Out, "isel.covered_ops", static_cast<double>(Covered), "count");
    layer(Out, "isel.fallback_ops", static_cast<double>(Fallback), "count");
    layer(Out, "ir.interp_ops_per_s", IrOps / InterpSeconds, "1/s");
  }
  return Out;
}
