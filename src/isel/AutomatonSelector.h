//===- AutomatonSelector.h - Automaton rule selector preset ------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rule selector (isel/RuleSelector.h) with discrimination-tree
/// discovery over an automaton compiled in memory and the first-match
/// policy: a drop-in replacement for GeneratedSelector that emits the
/// same machine code and only finds it faster.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_AUTOMATONSELECTOR_H
#define SELGEN_ISEL_AUTOMATONSELECTOR_H

#include "isel/RuleSelector.h"

namespace selgen {

/// A RuleSelector over an in-memory automaton (selector name
/// "automaton").
class AutomatonSelector : public RuleSelector {
public:
  AutomatonSelector(const PatternDatabase &Database, const GoalLibrary &Goals)
      : RuleSelector(Database, Goals, RuleDiscovery::Image) {}
};

} // namespace selgen

#endif // SELGEN_ISEL_AUTOMATONSELECTOR_H
