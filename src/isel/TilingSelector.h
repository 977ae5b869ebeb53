//===- TilingSelector.h - Cost-minimal DAG tiling ----------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost-minimal DAG tiling is a policy of the selection engine: see
/// runTilingSelection in isel/SelectionEngine.h, and RuleSelector
/// (isel/RuleSelector.h) constructed with a cost model.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_TILINGSELECTOR_H
#define SELGEN_ISEL_TILINGSELECTOR_H

#include "isel/RuleSelector.h"
#include "isel/SelectionEngine.h"

#endif // SELGEN_ISEL_TILINGSELECTOR_H
