//===- selgen-matchergen.cpp - Compile a rule library to a matcher automaton ---===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The offline matcher-automaton compiler: load a synthesized rule
// library, compile its patterns into the discrimination tree the
// rule selector's automaton discovery walks, and write it as the
// mmap-able binary image (.matb) that selgen-compile --automaton and
// selgen-served load with O(1) startup. The image is byte for byte what an
// in-memory build walks. It records the library fingerprint and cost
// table, so loading it against a changed library fails loudly instead
// of selecting with stale rules.
//
//   selgen-matchergen --library rules.dat --output rules.matb
//   selgen-compile --library rules.dat --automaton rules.matb
//
// The written file is mapped back and checked against the in-memory
// image before the tool exits.
//
//===----------------------------------------------------------------------===//

#include "isel/RuleSelector.h"
#include "support/CommandLine.h"
#include "support/Statistics.h"

#include <cstdio>

using namespace selgen;

int main(int argc, char **argv) {
  const std::vector<std::string> Flags = {"library", "output", "width",
                                          "stats-json", "help"};
  CommandLine Cli(argc, argv, Flags);
  if (!Cli.errors().empty() || Cli.hasFlag("help") ||
      !Cli.positional().empty()) {
    for (const std::string &Error : Cli.errors())
      std::fprintf(stderr, "%s\n", Error.c_str());
    std::fprintf(stderr, "%s\n",
                 CommandLine::usage("selgen-matchergen", Flags).c_str());
    return Cli.hasFlag("help") ? 0 : 1;
  }

  unsigned Width = static_cast<unsigned>(Cli.intOption("width", 8));
  std::string LibraryPath = Cli.stringOption("library", "rules.dat");
  std::string OutputPath = Cli.stringOption("output", "rules.matb");

  PatternDatabase Database = PatternDatabase::loadFromFile(LibraryPath);
  Database.filterNonNormalized();
  Database.sortSpecificFirst();
  GoalLibrary Goals = GoalLibrary::build(Width, GoalLibrary::allGroups());
  PreparedLibrary Library(Database, Goals);

  MatcherAutomaton Automaton = buildMatcherAutomaton(Library);
  if (!Automaton.writeBinaryFile(OutputPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", OutputPath.c_str());
    return 1;
  }

  // Map the file we just wrote: a file that does not load back to the
  // identical image must never reach a selector.
  std::string LoadError;
  std::unique_ptr<MappedAutomaton> Reloaded =
      MatcherAutomaton::mapBinary(OutputPath, &LoadError);
  if (!Reloaded) {
    std::fprintf(stderr, "error: round-trip failed: %s\n",
                 LoadError.c_str());
    return 1;
  }
  std::string Stale = automatonStalenessError(Reloaded->view(), Library);
  if (!Stale.empty() ||
      Reloaded->view().bytes() != Automaton.view().bytes()) {
    std::fprintf(stderr, "error: round-trip mismatch: %s\n", Stale.c_str());
    return 1;
  }

  Statistics &Stats = Statistics::get();
  Stats.add("automaton.states", static_cast<int64_t>(Automaton.numStates()));
  Stats.add("automaton.transitions",
            static_cast<int64_t>(Automaton.numTransitions()));
  std::printf("library %s: %zu rules (%zu usable, fingerprint %s)\n",
              LibraryPath.c_str(), Database.size(), Library.rules().size(),
              Library.fingerprint().c_str());
  std::printf("automaton %s: %zu states, %llu transitions, %zu bytes\n",
              OutputPath.c_str(), Automaton.numStates(),
              static_cast<unsigned long long>(Automaton.numTransitions()),
              Reloaded->sizeBytes());

  std::string StatsPath = Cli.stringOption("stats-json", "");
  if (!StatsPath.empty() && !Stats.writeJsonFile(StatsPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", StatsPath.c_str());
    return 1;
  }
  return 0;
}
