//===- MatcherAutomaton.h - Discrimination-tree rule matcher -----*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The matcher-automaton compiler: an offline pass that compiles a
/// priority-ordered rule library into a discrimination tree so that a
/// single traversal of the subject DAG finds every candidate rule,
/// instead of attempting each rule one by one as the paper's prototype
/// selector does.
///
/// Each pattern is flattened into a string of symbols by a pre-order
/// walk from its root: an operation node becomes a node symbol (result
/// index, opcode, and internal attribute — the constant's value or the
/// comparison relation), a pattern argument becomes a wildcard symbol
/// carrying only its sort (the subject subtree under a wildcard is
/// skipped, not walked). The strings of all rules are inserted into a
/// trie, so rules with a common pattern prefix share the states that
/// test it. Because every symbol consumes exactly one pending subject
/// position and announces how many new ones it opens, the strings are
/// self-delimiting: a string can end only where the pending count
/// reaches zero, no string is a proper prefix of another, and an
/// accepting state is therefore always a leaf reached with an empty
/// subject stack.
///
/// The tree tests exactly the per-position structural conditions of the
/// full matcher (isel/Matcher) and nothing else. Non-linear conditions
/// — repeated arguments binding the same value, DAG re-convergence of
/// shared pattern nodes, Imm-role arguments requiring constants, shift
/// preconditions — are deliberately left out, so the accepting rules
/// are a *superset* of the truly matching rules. The selection engine
/// re-runs the full matcher on each candidate in priority order, which
/// is what keeps the automaton selector byte-identical to the linear
/// one while doing sublinear candidate discovery.
///
/// The tree has one form: compile() builds the trie in builder-local
/// tables and lays it out as the pointer-free, mmap-able
/// "selgen-matcher-automaton-bin-v2" image (layout in
/// BinaryAutomaton.h) in an owned, 8-aligned buffer. Matching walks a
/// validated BinaryAutomatonView over that buffer — the same walk, over
/// the same bytes, as a .matb file written by writeBinaryFile and
/// mapped back with mapBinary. The image carries the rule library's
/// fingerprint and per-rule cost table, so a stale image is refused
/// (automatonStalenessError in isel/RuleSelector.h) rather than
/// silently desynchronized from the library it indexes.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_MATCHERGEN_MATCHERAUTOMATON_H
#define SELGEN_MATCHERGEN_MATCHERAUTOMATON_H

#include "cost/CostModel.h"
#include "ir/Graph.h"
#include "matchergen/BinaryAutomaton.h"

#include <memory>
#include <string>
#include <vector>

namespace selgen {

/// One rule pattern as the automaton compiler consumes it. The
/// caller (isel's rule preparation) resolves roots and priority
/// indices; matchergen itself depends only on the IR.
struct AutomatonPattern {
  const Graph *Pattern = nullptr;
  /// The pattern's root operation node (never null).
  const Node *Root = nullptr;
  /// Compare-and-jump rule: the flattening starts from the Cond
  /// node's operand value and the string goes into the jump tree.
  bool IsJump = false;
  /// Library priority index (most-specific-first order).
  uint32_t RuleIndex = 0;
};

/// A discrimination tree over a rule library's patterns, held as its
/// binary image. Move-only: the view points into the owned buffer,
/// which a move hands over intact.
class MatcherAutomaton {
public:
  /// Compiles \p Patterns (priority-indexed rules of one library) into
  /// a discrimination tree. \p LibraryFingerprint and \p NumRules
  /// identify the library for staleness checks. \p RuleCosts (indexed
  /// by rule priority index, one entry per library rule) and
  /// \p CostVersion stamp the library's cost table into the image;
  /// pass the defaults only for cost-free test automata (CostVersion 0
  /// marks the table as absent).
  static MatcherAutomaton compile(const std::vector<AutomatonPattern> &Patterns,
                                  const std::string &LibraryFingerprint,
                                  uint32_t NumRules,
                                  const std::vector<RuleCost> &RuleCosts = {},
                                  uint32_t CostVersion = 0);

  MatcherAutomaton(MatcherAutomaton &&) = default;
  MatcherAutomaton &operator=(MatcherAutomaton &&) = default;
  MatcherAutomaton(const MatcherAutomaton &) = delete;
  MatcherAutomaton &operator=(const MatcherAutomaton &) = delete;

  /// The validated view every selector, source and analysis walks.
  const BinaryAutomatonView &view() const { return View; }
  size_t numStates() const { return View.numStates(); }
  uint64_t numTransitions() const { return View.numTransitions(); }

  /// The image bytes (layout in BinaryAutomaton.h).
  std::string serializeBinary() const { return std::string(View.bytes()); }

  /// Writes serializeBinary() output atomically.
  bool writeBinaryFile(const std::string &Path) const;

  /// mmaps and validates a binary automaton image. Null — with
  /// \p Error set — on I/O, corruption, or version failure. Library
  /// staleness is the caller's check (automatonStalenessError).
  static std::unique_ptr<MappedAutomaton>
  mapBinary(const std::string &Path, std::string *Error = nullptr);

private:
  MatcherAutomaton() = default;

  /// 8-aligned storage of the image; View borrows it.
  std::vector<uint64_t> Image;
  BinaryAutomatonView View;
};

} // namespace selgen

#endif // SELGEN_MATCHERGEN_MATCHERAUTOMATON_H
