//===- AutomatonSelector.h - Discrimination-tree selector --------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrimination-tree instruction selector: a drop-in replacement
/// for the linear GeneratedSelector that discovers candidate rules
/// through a matcher automaton (src/matchergen) compiled offline from
/// the rule library. One traversal of the subject DAG tests all
/// candidate rules at once; the shared selection engine then re-runs
/// the full matcher on the (few) surviving candidates in library
/// priority order, so the machine code produced is byte-identical to
/// the linear selector's — only the time to find it changes.
///
/// The automaton is a binary image (matchergen/BinaryAutomaton.h)
/// either compiled in memory (buildMatcherAutomaton) or mapped from a
/// .matb file emitted by the selgen-matchergen tool; both are walked
/// through the same BinaryAutomatonView. A borrowed image is checked
/// against the library's fingerprint and cost table, so a stale
/// automaton is rejected rather than silently applied to the wrong
/// library.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_AUTOMATONSELECTOR_H
#define SELGEN_ISEL_AUTOMATONSELECTOR_H

#include "isel/PreparedLibrary.h"
#include "isel/SelectionEngine.h"
#include "isel/Selector.h"
#include "matchergen/BinaryAutomaton.h"
#include "matchergen/MatcherAutomaton.h"

namespace selgen {

/// Compiles the discrimination tree for \p Library. Rules that can
/// never fire (jump rules not wired taken-first) are left out; the
/// candidate sets the tree produces are exactly the rules the linear
/// selector would attempt a full match for.
MatcherAutomaton buildMatcherAutomaton(const PreparedLibrary &Library);

/// Returns an explanation if \p View was not compiled from \p Library
/// (fingerprint, rule-count, or cost-table/cost-version mismatch — a
/// cost-free image against a cost-stamped library is refused, not
/// silently selected with zero costs), or the empty string if it is
/// current.
std::string automatonStalenessError(const BinaryAutomatonView &View,
                                    const PreparedLibrary &Library);

/// Candidate discovery through one discrimination-tree traversal per
/// subject position over an automaton image (in-memory or mapped).
/// One instance per selection thread; not thread-safe itself, but many
/// instances can share the library and the read-only image.
class AutomatonCandidateSource : public RuleCandidateSource {
public:
  AutomatonCandidateSource(const PreparedLibrary &Library,
                           const BinaryAutomatonView &View)
      : Library(Library), View(View) {}

  void forEachBodyCandidate(
      const Node *S,
      const std::function<bool(const PreparedRule &)> &TryRule) override;
  void forEachJumpCandidate(
      NodeRef Condition,
      const std::function<bool(const PreparedRule &)> &TryRule) override;
  uint64_t takeNodesVisited() override;

private:
  const PreparedLibrary &Library;
  const BinaryAutomatonView &View;
  std::vector<uint32_t> Indices;
  uint64_t StatesVisited = 0;
};

/// The name compile-server code uses for a source over a mapped image.
using MappedCandidateSource = AutomatonCandidateSource;

/// Instruction selector driven by a synthesized pattern database, with
/// automaton-based candidate discovery.
class AutomatonSelector : public InstructionSelector {
public:
  /// Compiles the automaton in memory from \p Database (same
  /// parameters as GeneratedSelector; the two are interchangeable).
  AutomatonSelector(const PatternDatabase &Database,
                    const GoalLibrary &Goals);

  /// Adopts an already-prepared library and borrows \p Image (e.g. a
  /// mapped .matb file), which must outlive the selector. Callers that
  /// prepared the library for a staleness check pass it here, so the
  /// redundant prepare (clone + sort of every rule) is skipped. Aborts
  /// if the image is stale — callers wanting a graceful error should
  /// check automatonStalenessError() first.
  AutomatonSelector(PreparedLibrary &&Library,
                    const BinaryAutomatonView &Image);

  std::string name() const override { return "automaton"; }
  SelectionResult select(const Function &F) override;

  /// Number of usable (goal-resolved) rules.
  size_t numRules() const { return Library.rules().size(); }

  const PreparedLibrary &library() const { return Library; }
  const BinaryAutomatonView &automaton() const { return View; }

private:
  PreparedLibrary Library;
  /// Owns the image of an in-memory build; empty when borrowing.
  std::optional<MatcherAutomaton> Built;
  BinaryAutomatonView View;
};

} // namespace selgen

#endif // SELGEN_ISEL_AUTOMATONSELECTOR_H
