//===- RuleSelector.cpp - The rule-library-driven selector --------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/RuleSelector.h"

#include "support/Error.h"
#include "support/Statistics.h"

#include <utility>

using namespace selgen;

namespace {

/// Candidate discovery by a linear scan over the whole library — the
/// paper prototype's strategy. The only filters are the root opcode and
/// whether a jump rule can fire, so every rule whose root could align
/// with the subject is offered in priority order.
class LinearCandidateSource : public RuleCandidateSource {
public:
  explicit LinearCandidateSource(const PreparedLibrary &Library)
      : Library(Library) {}

  void forEachBodyCandidate(
      const Node *S,
      const std::function<bool(const PreparedRule &)> &TryRule) override {
    for (const PreparedRule &R : Library.rules())
      if (!R.IsJumpRule && R.Root->opcode() == S->opcode() && TryRule(R))
        return;
  }

  void forEachJumpCandidate(
      NodeRef,
      const std::function<bool(const PreparedRule &)> &TryRule) override {
    for (const PreparedRule &R : Library.rules())
      if (R.JumpCanFire && TryRule(R))
        return;
  }

private:
  const PreparedLibrary &Library;
};

} // namespace

MatcherAutomaton selgen::buildMatcherAutomaton(const PreparedLibrary &Library) {
  std::vector<AutomatonPattern> Patterns;
  // The cost table covers every rule, including the jump rules the tree
  // omits: it is indexed by rule priority index.
  std::vector<RuleCost> Costs;
  Costs.reserve(Library.rules().size());
  for (const PreparedRule &R : Library.rules()) {
    Costs.push_back(R.Cost);
    if (R.IsJumpRule && !R.JumpCanFire)
      continue;
    Patterns.push_back({&R.TheRule->Pattern, R.Root, R.IsJumpRule, R.Index});
  }
  return MatcherAutomaton::compile(Patterns, Library.fingerprint(),
                                   static_cast<uint32_t>(
                                       Library.rules().size()),
                                   std::move(Costs), cost::ModelVersion);
}

std::string
selgen::automatonStalenessError(const BinaryAutomatonView &View,
                                const PreparedLibrary &Library) {
  if (View.libraryFingerprint() != Library.fingerprint())
    return "automaton image was compiled for library fingerprint " +
           View.libraryFingerprint() + ", current library is " +
           Library.fingerprint() + " (stale automaton; re-run "
           "selgen-matchergen)";
  if (View.numRules() != Library.rules().size())
    return "automaton image indexes " + std::to_string(View.numRules()) +
           " rules, library has " +
           std::to_string(Library.rules().size()) +
           " (stale automaton; re-run selgen-matchergen)";
  // An image whose cost stamp or per-rule costs disagree with the
  // prepared library would silently mis-price tiling, so it is refused
  // like a fingerprint mismatch.
  if (View.costVersion() != cost::ModelVersion) {
    if (View.costVersion() == 0)
      return "automaton carries no rule cost table (cost version 0; "
             "current " +
             std::to_string(cost::ModelVersion) +
             "); re-run selgen-matchergen";
    return "automaton cost table was derived under cost model version " +
           std::to_string(View.costVersion()) + ", current is " +
           std::to_string(cost::ModelVersion) +
           " (stale automaton; re-run selgen-matchergen)";
  }
  for (const PreparedRule &R : Library.rules())
    if (View.ruleCost(R.Index) != R.Cost)
      return "automaton cost table disagrees with the library at rule " +
             std::to_string(R.Index) +
             " (stale automaton; re-run selgen-matchergen)";
  return "";
}

void AutomatonCandidateSource::forEachBodyCandidate(
    const Node *S,
    const std::function<bool(const PreparedRule &)> &TryRule) {
  Indices.clear();
  View.matchBody(S, Indices, &StatesVisited);
  offer(TryRule);
}

void AutomatonCandidateSource::forEachJumpCandidate(
    NodeRef Condition,
    const std::function<bool(const PreparedRule &)> &TryRule) {
  Indices.clear();
  View.matchJump(Condition, Indices, &StatesVisited);
  offer(TryRule);
}

void AutomatonCandidateSource::offer(
    const std::function<bool(const PreparedRule &)> &TryRule) {
  for (uint32_t Index : Indices)
    if (TryRule(Library.rules()[Index]))
      return;
}

uint64_t AutomatonCandidateSource::takeNodesVisited() {
  return std::exchange(StatesVisited, 0);
}

/// Records the automaton's size in the global statistics.
static void noteAutomatonStatistics(const BinaryAutomatonView &View) {
  Statistics &Stats = Statistics::get();
  Stats.add("automaton.states", static_cast<int64_t>(View.numStates()));
  Stats.add("automaton.transitions",
            static_cast<int64_t>(View.numTransitions()));
}

RuleSelector::RuleSelector(const PatternDatabase &Database,
                           const GoalLibrary &Goals, RuleDiscovery Discovery,
                           std::optional<CostKind> Tiling)
    : Library(Database, Goals), Tiling(Tiling) {
  if (Discovery == RuleDiscovery::Linear) {
    if (Tiling)
      reportFatalError("tiling selection needs automaton discovery");
    return;
  }
  Built.emplace(buildMatcherAutomaton(Library));
  View = Built->view();
  noteAutomatonStatistics(*View);
}

RuleSelector::RuleSelector(PreparedLibrary &&PrebuiltLibrary,
                           const BinaryAutomatonView &Image,
                           std::optional<CostKind> Tiling)
    : Library(std::move(PrebuiltLibrary)), View(Image), Tiling(Tiling) {
  std::string Stale = automatonStalenessError(*View, Library);
  if (!Stale.empty())
    reportFatalError(Stale);
  noteAutomatonStatistics(*View);
}

std::string RuleSelector::name() const {
  if (!View)
    return "synthesized";
  return Tiling ? "tiling" : "automaton";
}

SelectionResult RuleSelector::select(const Function &F) {
  if (!View) {
    LinearCandidateSource Source(Library);
    return runRuleSelection(F, Library, Source, name());
  }
  AutomatonCandidateSource Source(Library, *View);
  return runRuleSelection(F, Library, Source, name(), nullptr, Tiling);
}
