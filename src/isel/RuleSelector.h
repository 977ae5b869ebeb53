//===- RuleSelector.h - The rule-library-driven selector ---------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction selector generated from a synthesized rule library
/// (paper Sections 3/5.6/7.3): greedy DAG selection that tries the
/// library's rules most-specific-first at every uncovered node and
/// rewrites matched subgraphs to the goal instruction's machine code;
/// uncovered operations fall back to a naive per-operation lowering
/// and count against coverage (Section 7.3's metric).
///
/// One class configures the selection engine's two axes
/// (isel/SelectionEngine.h). Discovery is the paper prototype's linear
/// scan (orders of magnitude slower than the handwritten selector on
/// the full library — a property of the prototype matcher, not of the
/// library) or a walk of a discrimination-tree automaton image
/// (src/matchergen), compiled in memory or borrowed from a mapped .matb
/// file and then checked against the library's fingerprint and cost
/// table. The policy is first-match, or cost-minimal tiling under a
/// cost model (image discovery only).
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_RULESELECTOR_H
#define SELGEN_ISEL_RULESELECTOR_H

#include "isel/PreparedLibrary.h"
#include "isel/SelectionEngine.h"
#include "isel/Selector.h"
#include "matchergen/BinaryAutomaton.h"
#include "matchergen/MatcherAutomaton.h"

#include <optional>

namespace selgen {

/// Compiles the discrimination tree for \p Library. Jump rules that can
/// never fire are left out; the candidate sets the tree produces are
/// exactly the rules the linear scan would attempt a full match for.
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
  void offer(const std::function<bool(const PreparedRule &)> &TryRule);

  const PreparedLibrary &Library;
  const BinaryAutomatonView &View;
  std::vector<uint32_t> Indices;
  uint64_t StatesVisited = 0;
};

/// The name compile-server code uses for a source over a mapped image.
using MappedCandidateSource = AutomatonCandidateSource;

/// How a RuleSelector discovers candidate rules.
enum class RuleDiscovery { Linear, Image };

/// Instruction selector driven by a synthesized pattern database.
class RuleSelector : public InstructionSelector {
public:
  /// Prepares \p Database (rules for goals missing from \p Goals are
  /// ignored; the database should already be filtered and sorted,
  /// Section 5.6, and is re-sorted defensively) and, for image
  /// discovery, compiles the automaton in memory. \p Tiling selects
  /// the tiling policy under that cost model; it needs image
  /// discovery.
  RuleSelector(const PatternDatabase &Database, const GoalLibrary &Goals,
               RuleDiscovery Discovery,
               std::optional<CostKind> Tiling = std::nullopt);

  /// Adopts an already-prepared library and borrows \p Image (e.g. a
  /// mapped .matb file), which must outlive the selector. Callers that
  /// prepared the library for a staleness check pass it here, so the
  /// redundant prepare (clone + sort of every rule) is skipped. Aborts
  /// if the image is stale — callers wanting a graceful error check
  /// automatonStalenessError() first.
  RuleSelector(PreparedLibrary &&Library, const BinaryAutomatonView &Image,
               std::optional<CostKind> Tiling = std::nullopt);

  /// "synthesized" (linear), "automaton" (image, first-match) or
  /// "tiling"; --dump-asm listings embed it in their header line.
  std::string name() const override;
  SelectionResult select(const Function &F) override;

  /// Number of usable (goal-resolved) rules.
  size_t numRules() const { return Library.rules().size(); }

  /// The prepared (priority-ordered) rule library.
  const PreparedLibrary &library() const { return Library; }

  /// The automaton image (image discovery only).
  const BinaryAutomatonView &automaton() const { return *View; }

private:
  PreparedLibrary Library;
  /// Owns the image of an in-memory build; empty when borrowing.
  std::optional<MatcherAutomaton> Built;
  /// The image walked for discovery; empty for the linear scan.
  std::optional<BinaryAutomatonView> View;
  std::optional<CostKind> Tiling;
};

} // namespace selgen

#endif // SELGEN_ISEL_RULESELECTOR_H
