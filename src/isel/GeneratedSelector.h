//===- GeneratedSelector.h - Linear-scan rule selector preset ----*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper prototype's configuration of the rule selector
/// (isel/RuleSelector.h): linear-scan discovery, first-match policy.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_GENERATEDSELECTOR_H
#define SELGEN_ISEL_GENERATEDSELECTOR_H

#include "isel/RuleSelector.h"

namespace selgen {

/// A RuleSelector that finds candidate rules by a linear scan over the
/// whole library (selector name "synthesized").
class GeneratedSelector : public RuleSelector {
public:
  GeneratedSelector(const PatternDatabase &Database, const GoalLibrary &Goals)
      : RuleSelector(Database, Goals, RuleDiscovery::Linear) {}
};

} // namespace selgen

#endif // SELGEN_ISEL_GENERATEDSELECTOR_H
