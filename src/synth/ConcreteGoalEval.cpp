//===- ConcreteGoalEval.cpp - Solver-free candidate screening ----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "synth/ConcreteGoalEval.h"

#include "ir/Interpreter.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

using namespace selgen;

GoalInstance selgen::makeConcreteGoalInstance(SmtContext &Smt, unsigned Width,
                                              const InstrSpec &Goal,
                                              const TestCase &Test) {
  GoalInstance Instance;
  // Memory arguments need the M-value width, which needs the valid
  // pointers, which need the (value) arguments — so build value
  // literals first and patch memory literals in after the model
  // exists. Valid pointers never depend on memory arguments.
  std::vector<unsigned> MemoryArgIndices;
  for (unsigned I = 0; I < Goal.argSorts().size(); ++I) {
    const Sort &S = Goal.argSorts()[I];
    if (S.isMemory()) {
      MemoryArgIndices.push_back(I);
      Instance.Args.push_back(Smt.ctx().bv_val(0, 1)); // Placeholder.
    } else {
      assert(S.isValue() && "goal arguments are values or memory");
      Instance.Args.push_back(Smt.literal(Test[I]));
    }
  }
  Instance.Memory = std::make_unique<MemoryModel>(
      Smt, Goal.validPointers(Smt, Width, Instance.Args));
  for (unsigned I : MemoryArgIndices) {
    assert(Test[I].width() == Instance.Memory->mvalueWidth() &&
           "memory test value width mismatch");
    Instance.Args[I] = Smt.literal(Test[I]);
  }
  return Instance;
}

GoalInstance selgen::makeSymbolicGoalInstance(SmtContext &Smt, unsigned Width,
                                              const InstrSpec &Goal,
                                              const std::string &Tag) {
  GoalInstance Instance;
  std::vector<unsigned> MemoryArgIndices;
  for (unsigned I = 0; I < Goal.argSorts().size(); ++I) {
    const Sort &S = Goal.argSorts()[I];
    if (S.isMemory()) {
      MemoryArgIndices.push_back(I);
      Instance.Args.push_back(Smt.ctx().bv_val(0, 1)); // Placeholder.
    } else {
      Instance.Args.push_back(
          Smt.bvConst(Tag + "_a" + std::to_string(I), S.Width));
    }
  }
  Instance.Memory = std::make_unique<MemoryModel>(
      Smt, Goal.validPointers(Smt, Width, Instance.Args));
  for (unsigned I : MemoryArgIndices)
    Instance.Args[I] = Smt.bvConst(Tag + "_a" + std::to_string(I),
                                   Instance.Memory->mvalueWidth());
  return Instance;
}

namespace {

/// Reduces a ground bit-vector term to its value, or nullopt if
/// simplification did not reach a numeral.
std::optional<BitValue> tryEvalBits(const z3::expr &Expr) {
  z3::expr Simplified = Expr.simplify();
  if (!Simplified.is_numeral())
    return std::nullopt;
  unsigned Width = Simplified.get_sort().bv_size();
  uint64_t Narrow = 0;
  if (Simplified.is_numeral_u64(Narrow))
    return BitValue(Width, Narrow);
  return BitValue::fromString(Width, Simplified.get_decimal_string(0), 10);
}

/// Reduces a ground boolean term, or nullopt.
std::optional<bool> tryEvalBool(const z3::expr &Expr) {
  z3::expr Simplified = Expr.simplify();
  if (Simplified.is_true())
    return true;
  if (Simplified.is_false())
    return false;
  return std::nullopt;
}

/// Reduces one semantic result of sort \p S to its BitValue encoding
/// (bools become width-1 values).
std::optional<BitValue> tryEvalResult(const z3::expr &Expr, const Sort &S) {
  if (S.isBool()) {
    std::optional<bool> Flag = tryEvalBool(Expr);
    if (!Flag)
      return std::nullopt;
    return BitValue(1, *Flag ? 1 : 0);
  }
  return tryEvalBits(Expr);
}

} // namespace

ConcreteGoalEval::ConcreteGoalEval(SmtContext &Smt, unsigned Width,
                                   const InstrSpec &Goal)
    : Smt(Smt), Width(Width), Goal(Goal),
      UseInterpreter(!Goal.accessesMemory()) {}

std::optional<ConcreteGoalOutcome>
ConcreteGoalEval::evaluateGoal(const TestCase &Test) {
  // Preferred path: the goal's own BitValue semantics. Only installed
  // on goals whose precondition is trivially true.
  if (std::optional<std::vector<BitValue>> Results =
          Goal.computeResultsConcrete(Width, Test)) {
    ConcreteGoalOutcome Outcome;
    Outcome.Results = std::move(*Results);
    return Outcome;
  }

  // Fallback: substitute literals into the exact symbolic semantics
  // and let the simplifier fold the ground term to a numeral.
  GoalInstance Instance = makeConcreteGoalInstance(Smt, Width, Goal, Test);
  SemanticsContext Context{Smt, Width, Instance.Memory.get(), {}};
  std::vector<z3::expr> Results =
      Goal.computeResults(Context, Instance.Args, {});
  std::optional<bool> Defined =
      tryEvalBool(Goal.precondition(Context, Instance.Args, {}));
  if (!Defined)
    return std::nullopt;

  ConcreteGoalOutcome Outcome;
  Outcome.Defined = *Defined;
  if (!Outcome.Defined)
    return Outcome;
  for (unsigned R = 0; R < Results.size(); ++R) {
    std::optional<BitValue> Value =
        tryEvalResult(Results[R], Goal.resultSorts()[R]);
    if (!Value)
      return std::nullopt;
    Outcome.Results.push_back(std::move(*Value));
  }
  return Outcome;
}

ScreenVerdict ConcreteGoalEval::screen(const Graph &Pattern,
                                       const TestCase &Test,
                                       const ConcreteGoalOutcome &GoalOutcome,
                                       bool RequireTotal) {
  if (UseInterpreter)
    return screenInterpreted(Pattern, Test, GoalOutcome, RequireTotal);
  return screenSimplified(Pattern, Test, GoalOutcome, RequireTotal);
}

ScreenVerdict
ConcreteGoalEval::screenInterpreted(const Graph &Pattern, const TestCase &Test,
                                    const ConcreteGoalOutcome &GoalOutcome,
                                    bool RequireTotal) const {
  // Memory-free goal: all arguments are plain values and the pattern
  // has no range conditions, so the IR interpreter decides exactly.
  std::vector<EvalValue> Args;
  for (const BitValue &Value : Test)
    Args.push_back(EvalValue::fromBits(Value));
  EvalResult Evaluated = evaluateGraph(Pattern, Args);
  bool PatternDefined = !Evaluated.Undefined;

  // Mirror the verification query: partial mode kills iff
  //   P+ ∧ ¬(P(g) ∧ results equal); total mode kills iff
  //   P(g) ∧ ¬(P+ ∧ results equal).
  if (RequireTotal) {
    if (!GoalOutcome.Defined)
      return ScreenVerdict::Pass;
    if (!PatternDefined)
      return ScreenVerdict::Kill;
  } else {
    if (!PatternDefined)
      return ScreenVerdict::Pass;
    if (!GoalOutcome.Defined)
      return ScreenVerdict::Kill;
  }

  assert(Evaluated.Results.size() == GoalOutcome.Results.size() &&
         "pattern/goal result count mismatch");
  for (unsigned R = 0; R < Evaluated.Results.size(); ++R) {
    const EvalValue &Result = Evaluated.Results[R];
    bool Equal;
    if (Result.ValueSort.isBool())
      Equal = Result.Flag == (GoalOutcome.Results[R].zextValue() != 0);
    else
      Equal = Result.Bits == GoalOutcome.Results[R];
    if (!Equal)
      return ScreenVerdict::Kill;
  }
  return ScreenVerdict::Pass;
}

ScreenVerdict
ConcreteGoalEval::screenSimplified(const Graph &Pattern, const TestCase &Test,
                                   const ConcreteGoalOutcome &GoalOutcome,
                                   bool RequireTotal) {
  if (FaultInjector::get().shouldFire("prescreen_simplify_throw"))
    throw z3::exception("canceled");
  GoalInstance Instance = makeConcreteGoalInstance(Smt, Width, Goal, Test);
  SemanticsContext Context{Smt, Width, Instance.Memory.get(), {}};
  GraphSemantics Semantics =
      buildGraphSemantics(Context, Pattern, Instance.Args);

  std::optional<bool> PatternDefined = tryEvalBool(Semantics.Precondition);
  if (!PatternDefined)
    return ScreenVerdict::Inconclusive;

  if (RequireTotal) {
    if (!GoalOutcome.Defined)
      return ScreenVerdict::Pass;
    if (!*PatternDefined)
      return ScreenVerdict::Kill;
  } else {
    if (!*PatternDefined)
      return ScreenVerdict::Pass;
    if (!GoalOutcome.Defined)
      return ScreenVerdict::Kill;
  }

  // A concrete out-of-range memory access kills the candidate in
  // either mode (condition (3) of the verification query).
  for (const z3::expr &Condition : Semantics.RangeConditions) {
    std::optional<bool> InRange = tryEvalBool(Condition);
    if (!InRange)
      return ScreenVerdict::Inconclusive;
    if (!*InRange)
      return ScreenVerdict::Kill;
  }

  assert(Semantics.Results.size() == GoalOutcome.Results.size() &&
         "pattern/goal result count mismatch");
  for (unsigned R = 0; R < Semantics.Results.size(); ++R) {
    std::optional<BitValue> Result =
        tryEvalResult(Semantics.Results[R], Goal.resultSorts()[R]);
    if (!Result)
      return ScreenVerdict::Inconclusive;
    if (!(*Result == GoalOutcome.Results[R]))
      return ScreenVerdict::Kill;
  }
  return ScreenVerdict::Pass;
}
