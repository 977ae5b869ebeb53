//===- SelectionEngine.cpp - Shared rule-driven selection ----------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/SelectionEngine.h"

#include "analysis/Dataflow.h"
#include "ir/Printer.h"
#include "isel/Lowering.h"
#include "isel/Matcher.h"
#include "support/Error.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "x86/MachinePasses.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

using namespace selgen;

namespace {

using ValueKey = std::pair<const Node *, unsigned>;

bool StaticPrecondElision = true;

/// Matching-work counters for one select() run.
struct SelectionCounters {
  uint64_t RulesTried = 0;
  uint64_t NodesVisited = 0;
  uint64_t PrecondProved = 0;
};

/// What every block of one selection run shares: discovery, policy and
/// the counters.
struct SelectionRun {
  const PreparedLibrary &Library;
  RuleCandidateSource &Source;
  /// The tiling cost model; empty under the first-match policy.
  std::optional<CostKind> Tiling;
  /// Tiling only: the cost of materializing a constant into a register
  /// (the library's immediate-move rule under the model; zero under
  /// unit).
  uint64_t ConstCost = 0;
  unsigned Width = 0;
  SelectionCounters Counters;
};

/// True for nodes the engine never offers to rules as a body root:
/// bool-only producers (Cmp) are matched as part of their consumers or
/// at the terminator.
bool isBoolOnlyProducer(const Node *S) {
  return S->numResults() == 1 && S->resultSort(0).isBool();
}

bool isMemoryValue(const NodeRef &Ref) {
  return Ref.Def->resultSort(Ref.Index).isMemory();
}

/// Per-node cost estimate of the naive fallback lowering (emitFallback),
/// which the tiling DP charges for cones no rule covers. The unit model
/// always charges 1 per node; the other models mirror emitFallback's
/// instruction choices.
RuleCost fallbackNodeCost(const Node *N) {
  switch (N->opcode()) {
  case Opcode::Mul:
    return RuleCost{1, 3, 3}; // imul
  case Opcode::Load:
  case Opcode::Store:
    return RuleCost{1, 4, 3}; // mov with one memory operand
  case Opcode::Mux:
    return RuleCost{2, 2, 5}; // cmp + cmov
  case Opcode::Arg:
  case Opcode::Const:
  case Opcode::Cond:
    return RuleCost{0, 0, 0};
  default:
    return RuleCost{1, 1, 2}; // single reg-reg ALU instruction
  }
}

/// Selection and emission for one basic block.
class BlockSelection {
public:
  BlockSelection(FunctionLowering &Lowering, const BasicBlock *BB,
                 SelectionRun &Run)
      : L(Lowering), BB(BB), MB(Lowering.machineBlock(BB)), Run(Run) {}

  struct Selection {
    const Rule *TheRule = nullptr;
    const GoalInstruction *Goal = nullptr;
    MatchResult Match;
    const Node *RootSubject = nullptr;
    std::set<ValueKey> Produced;
    std::optional<CondCode> JumpCC;
  };

  FunctionLowering &L;
  const BasicBlock *BB;
  MachineBlock *MB;
  SelectionRun &Run;

  std::vector<Node *> Live; ///< Non-Arg live nodes, forward order.
  std::map<ValueKey, std::vector<const Node *>> Users;
  std::set<ValueKey> TerminatorUses;
  std::set<const Node *> Covered;
  std::map<const Node *, Selection> SelectionsByRoot;
  std::optional<Selection> BranchSelection;

  /// Tiling only: the candidates of Live[I] and of the branch
  /// condition in cover-cost order, and the DP objective of the block.
  std::vector<std::vector<uint32_t>> BodyOrder;
  std::vector<uint32_t> JumpOrder;
  uint64_t BestCoverCost = 0;

  unsigned SynthCount = 0, FallbackCount = 0;

  /// Lazily built known-bits/range facts over the block body, used to
  /// discharge shift preconditions statically.
  std::optional<GraphFacts> Facts;

  /// True if the pattern contains at least one shift and the dataflow
  /// analysis proves every subject value the shifts' amounts matched
  /// to be in [0, width). Constants get singleton facts, so a proof
  /// subsumes the runtime matched-constant re-check: skipping it
  /// cannot change the match decision.
  bool preconditionsProvedStatically(const Graph &Pattern,
                                     const MatchResult &Match) {
    bool SawShift = false;
    for (const auto &NPtr : Pattern.nodes()) {
      Opcode Op = NPtr->opcode();
      if (Op != Opcode::Shl && Op != Opcode::Shr && Op != Opcode::Shrs)
        continue;
      auto It = Match.NodeMap.find(NPtr.get());
      if (It == Match.NodeMap.end())
        continue; // Dead pattern node; never executed.
      SawShift = true;
      if (!Facts->provesShiftInRange(It->second))
        return false;
    }
    return SawShift;
  }

  /// The precondition gate shared by body and branch selection: prove
  /// statically when possible, fall back to the matched-constant check.
  bool preconditionsHold(const Graph &Pattern, const MatchResult &Match) {
    if (StaticPrecondElision &&
        preconditionsProvedStatically(Pattern, Match)) {
      ++Run.Counters.PrecondProved;
      return true;
    }
    return matchedConstantsSatisfyPreconditions(Pattern, Match, Run.Width);
  }

  void computeLiveness() {
    std::vector<NodeRef> Roots = BB->terminatorOperands();
    for (const NodeRef &Ref : Roots)
      TerminatorUses.insert({Ref.Def, Ref.Index});
    if (BB->terminator().TermKind == Terminator::Kind::Branch)
      TerminatorUses.insert({BB->terminator().Condition.Def,
                             BB->terminator().Condition.Index});
    for (Node *N : BB->body().liveNodesFrom(Roots)) {
      if (N->opcode() != Opcode::Arg)
        Live.push_back(N);
      for (const NodeRef &Operand : N->operands())
        Users[{Operand.Def, Operand.Index}].push_back(N);
    }
  }

  /// The subject values a rule instance defines, given a match.
  static std::set<ValueKey> producedValues(const Graph &Pattern,
                                           const MatchResult &Match,
                                           const Node *CondRoot) {
    std::set<ValueKey> Produced;
    for (const NodeRef &Ref : Pattern.results()) {
      if (Ref.Def->opcode() == Opcode::Arg || Ref.Def == CondRoot)
        continue;
      auto It = Match.NodeMap.find(Ref.Def);
      if (It != Match.NodeMap.end())
        Produced.insert({It->second, Ref.Index});
    }
    return Produced;
  }

  /// Checks that a match does not overlap earlier selections and that
  /// every matched value with uses outside the match is produced by
  /// the rule (the prototype "strictly avoids overlapping patterns",
  /// Section 7.3).
  bool usageCheckOk(const MatchResult &Match,
                    const std::set<ValueKey> &Produced) {
    std::set<const Node *> Matched(Match.CoveredNodes.begin(),
                                   Match.CoveredNodes.end());
    for (const Node *X : Match.CoveredNodes) {
      if (Covered.count(X))
        return false;
      for (unsigned I = 0; I < X->numResults(); ++I) {
        ValueKey Key{X, I};
        if (Produced.count(Key))
          continue;
        if (TerminatorUses.count(Key))
          return false;
        auto It = Users.find(Key);
        if (It == Users.end())
          continue;
        for (const Node *User : It->second)
          if (!Matched.count(User))
            return false;
      }
    }
    return true;
  }

  /// Offers the prepared rules \p Order names to \p TryRule until it
  /// accepts one.
  template <typename TryFn>
  void offer(const std::vector<uint32_t> &Order, TryFn &&TryRule) {
    for (uint32_t Index : Order)
      if (TryRule(Run.Library.rules()[Index]))
        return;
  }

  void selectBody() {
    for (size_t Pos = Live.size(); Pos-- > 0;) {
      Node *S = Live[Pos];
      if (Covered.count(S) || S->opcode() == Opcode::Const ||
          isBoolOnlyProducer(S))
        continue;
      auto TryRule = [&](const PreparedRule &R) {
        ++Run.Counters.RulesTried;
        std::optional<MatchResult> Match =
            matchPattern(R.TheRule->Pattern, R.Goal->Spec->argRoles(),
                         R.Root, S, &Run.Counters.NodesVisited);
        if (!Match)
          return false;
        if (!preconditionsHold(R.TheRule->Pattern, *Match))
          return false;
        std::set<ValueKey> Produced =
            producedValues(R.TheRule->Pattern, *Match, nullptr);
        bool DefinesRoot = false;
        for (unsigned I = 0; I < S->numResults(); ++I)
          DefinesRoot |= Produced.count({S, I}) != 0;
        if (!DefinesRoot)
          return false; // The match must define this node's values.
        if (!usageCheckOk(*Match, Produced))
          return false;

        Selection Sel;
        Sel.TheRule = R.TheRule;
        Sel.Goal = R.Goal;
        Sel.Match = std::move(*Match);
        Sel.RootSubject = S;
        Sel.Produced = std::move(Produced);
        for (const Node *X : Sel.Match.CoveredNodes)
          Covered.insert(X);
        SelectionsByRoot.emplace(S, std::move(Sel));
        return true;
      };
      if (Run.Tiling)
        offer(BodyOrder[Pos], TryRule);
      else
        Run.Source.forEachBodyCandidate(S, TryRule);
      // Unselected nodes fall back during emission.
    }
  }

  void selectBranch() {
    if (BB->terminator().TermKind != Terminator::Kind::Branch)
      return;
    NodeRef Condition = BB->terminator().Condition;
    auto TryRule = [&](const PreparedRule &R) {
      ++Run.Counters.RulesTried;
      std::optional<MatchResult> Match =
          matchPatternValue(R.TheRule->Pattern, R.Goal->Spec->argRoles(),
                            R.Root->operand(0), Condition,
                            &Run.Counters.NodesVisited);
      if (!Match)
        return false;
      if (!preconditionsHold(R.TheRule->Pattern, *Match))
        return false;
      std::set<ValueKey> Produced =
          producedValues(R.TheRule->Pattern, *Match, R.Root);
      // The branch consumes the condition value itself.
      Produced.insert({Condition.Def, Condition.Index});
      if (!usageCheckOk(*Match, Produced))
        return false;

      Selection Sel;
      Sel.TheRule = R.TheRule;
      Sel.Goal = R.Goal;
      Sel.Match = std::move(*Match);
      Sel.Produced = std::move(Produced);
      for (const Node *X : Sel.Match.CoveredNodes)
        Covered.insert(X);
      BranchSelection = std::move(Sel);
      return true;
    };
    if (Run.Tiling)
      offer(JumpOrder, TryRule);
    else
      Run.Source.forEachJumpCandidate(Condition, TryRule);
  }

  /// The distinct consumers of \p D's non-memory values, capped at 2; a
  /// terminator use counts as 2. A value with 2 is shared: it is
  /// produced once whichever tile consumes it. Memory tokens do not
  /// count: they thread through loads and stores for free (a rule that
  /// folds a load reproduces the token, see producedValues), so a token
  /// use never makes its producer look shared.
  unsigned valueUsers(const Node *D) const {
    const Node *FirstUser = nullptr;
    for (unsigned I = 0; I < D->numResults(); ++I) {
      if (D->resultSort(I).isMemory())
        continue;
      if (TerminatorUses.count({D, I}))
        return 2;
      auto It = Users.find({D, I});
      if (It == Users.end())
        continue;
      for (const Node *User : It->second) {
        if (FirstUser && User != FirstUser)
          return 2;
        FirstUser = User;
      }
    }
    return FirstUser ? 1 : 0;
  }

  /// The tiling policy (DESIGN.md Section 4f): a bottom-up dynamic
  /// program prices the cheapest cover of every selectable node's
  /// operand cone under \p Kind and orders the node's candidates (and
  /// the branch condition's) by (cover cost, priority index); the
  /// first-match commit then runs over that order, so emission,
  /// legality checks and fallback stay first-match's. A tile costs its
  /// rule's cost plus each distinct frontier input once: arguments,
  /// shared values (priced once at their own root, which keeps the DP
  /// sound on re-converging DAGs) and Imm-role constants are free, a
  /// Reg-role constant costs the immediate-move rule, and a single-use
  /// operation costs its own cone's best. Under the unit model every
  /// full cover of a cone costs its node count, so the order is the
  /// library priority order and the code is first-match's, byte for
  /// byte. Structurally unmatched candidates stay last in priority
  /// order (sources only over-approximate; the engine rejects them).
  void orderCandidatesByCost(CostKind Kind) {
    // Best known cost of covering the cone rooted at a definition.
    std::map<const Node *, uint64_t> Best;
    auto bestOf = [&Best](const Node *D) {
      auto It = Best.find(D);
      return It != Best.end() ? It->second : uint64_t(0);
    };

    // What a matched tile pays for its frontier inputs.
    auto inputCost = [&](const MatchResult &Match,
                         const std::vector<ArgRole> &Roles) {
      std::set<const Node *> Inside(Match.CoveredNodes.begin(),
                                    Match.CoveredNodes.end());
      std::map<const Node *, uint64_t> PerDef;
      for (size_t I = 0; I < Match.ArgBindings.size(); ++I) {
        const NodeRef &Ref = Match.ArgBindings[I];
        if (!Ref.isValid() || isMemoryValue(Ref))
          continue;
        const Node *D = Ref.Def;
        uint64_t C = 0; // Free: an argument, inside the tile, or shared.
        if (D->opcode() == Opcode::Const) {
          if (!Inside.count(D))
            C = I < Roles.size() && Roles[I] == ArgRole::Imm ? 0
                                                             : Run.ConstCost;
        } else if (D->opcode() != Opcode::Arg && !Inside.count(D) &&
                   valueUsers(D) < 2) {
          C = bestOf(D);
        }
        auto [It, Inserted] = PerDef.emplace(D, C);
        if (!Inserted)
          It->second = std::min(It->second, C);
      }
      uint64_t Sum = 0;
      for (const auto &Entry : PerDef)
        Sum += Entry.second;
      return Sum;
    };

    // What covering one node costs when no rule fires (the per-opcode
    // fallback), with the same input accounting.
    auto fallbackCoverCost = [&](const Node *S) {
      uint64_t Total =
          Kind == CostKind::Unit ? 1 : fallbackNodeCost(S).get(Kind);
      std::set<const Node *> Seen;
      for (const NodeRef &Operand : S->operands()) {
        const Node *D = Operand.Def;
        if (isMemoryValue(Operand) || !Seen.insert(D).second ||
            D->opcode() == Opcode::Arg || valueUsers(D) == 2)
          continue;
        Total += D->opcode() == Opcode::Const ? Run.ConstCost : bestOf(D);
      }
      return Total;
    };

    // Sorts \p Order (candidates in priority order) by (cover cost,
    // index), structurally unmatched ones last; returns the cheapest
    // cover, or nullopt if none matched.
    constexpr uint64_t Unmatched = UINT64_MAX;
    auto rank = [&](std::vector<uint32_t> &Order, auto &&Match) {
      std::vector<std::pair<uint64_t, uint32_t>> Ranked;
      Ranked.reserve(Order.size());
      for (uint32_t Index : Order) {
        const PreparedRule &R = Run.Library.rules()[Index];
        std::optional<MatchResult> M = Match(R);
        uint64_t Cost = Unmatched;
        if (M)
          Cost = (Kind == CostKind::Unit ? M->CoveredNodes.size()
                                         : R.Cost.get(Kind)) +
                 inputCost(*M, R.Goal->Spec->argRoles());
        Ranked.emplace_back(Cost, Index);
      }
      std::sort(Ranked.begin(), Ranked.end());
      for (size_t I = 0; I < Ranked.size(); ++I)
        Order[I] = Ranked[I].second;
      return Ranked.empty() || Ranked.front().first == Unmatched
                 ? std::nullopt
                 : std::optional<uint64_t>(Ranked.front().first);
    };
    auto collectInto = [](std::vector<uint32_t> &Order) {
      return [&Order](const PreparedRule &R) {
        Order.push_back(R.Index);
        return false; // Enumerate everything; the DP picks the order.
      };
    };

    // Live is in creation order, so every operand's cone is priced
    // before its users look it up.
    BodyOrder.resize(Live.size());
    for (size_t I = 0; I < Live.size(); ++I) {
      const Node *S = Live[I];
      if (S->opcode() == Opcode::Const) {
        Best[S] = Run.ConstCost;
        continue;
      }
      if (isBoolOnlyProducer(S)) {
        // Never a selection root; priced as fallback if a tile ever
        // stops at it.
        Best[S] = fallbackCoverCost(S);
        continue;
      }
      Run.Source.forEachBodyCandidate(S, collectInto(BodyOrder[I]));
      std::optional<uint64_t> Cheapest =
          rank(BodyOrder[I], [&](const PreparedRule &R) {
            return matchPattern(R.TheRule->Pattern, R.Goal->Spec->argRoles(),
                                R.Root, S, &Run.Counters.NodesVisited);
          });
      Best[S] = Cheapest ? *Cheapest : fallbackCoverCost(S);
      // The emitted cover decomposes into roots: shared definitions,
      // terminator-used values, and nodes live only through the memory
      // chain (stores). Their cones sum to the DP objective.
      if (valueUsers(S) != 1)
        BestCoverCost += Best[S];
    }

    if (BB->terminator().TermKind != Terminator::Kind::Branch)
      return;
    NodeRef Condition = BB->terminator().Condition;
    Run.Source.forEachJumpCandidate(Condition, collectInto(JumpOrder));
    if (std::optional<uint64_t> Cheapest =
            rank(JumpOrder, [&](const PreparedRule &R) {
              return matchPatternValue(
                  R.TheRule->Pattern, R.Goal->Spec->argRoles(),
                  R.Root->operand(0), Condition, &Run.Counters.NodesVisited);
            }))
      BestCoverCost += *Cheapest;
  }

  /// Emits one selected rule instance.
  void emitSelection(Selection &Sel) {
    const InstrSpec &Spec = *Sel.Goal->Spec;
    std::vector<MOperand> Args;
    for (unsigned I = 0; I < Spec.argSorts().size(); ++I) {
      NodeRef Binding = Sel.Match.ArgBindings[I];
      if (!Binding.isValid() && Sel.Goal->Spec->argRole(I) != ArgRole::Mem)
        reportFatalError("rule for " + Sel.Goal->Name + " leaves argument " +
                         std::to_string(I) + " unbound (pattern: " +
                         printGraphExpression(Sel.TheRule->Pattern) + ")");
      switch (Spec.argRole(I)) {
      case ArgRole::Mem:
        Args.push_back(MOperand::none());
        break;
      case ArgRole::Imm:
        assert(Binding.Def->opcode() == Opcode::Const &&
               "immediate binding must be a constant");
        Args.push_back(MOperand::imm(Binding.Def->constValue()));
        break;
      case ArgRole::Reg:
      case ArgRole::Addr:
        Args.push_back(materialize(Binding));
        break;
      }
    }
    EmittedGoal Out = Sel.Goal->Emit(L.machineFunction(), Args);
    for (MachineInstr &Instr : Out.Instrs)
      MB->append(std::move(Instr));
    Sel.JumpCC = Out.JumpCC;

    const Graph &Pattern = Sel.TheRule->Pattern;
    for (unsigned R = 0; R < Pattern.results().size(); ++R) {
      const NodeRef &Ref = Pattern.results()[R];
      if (Ref.Def->opcode() == Opcode::Arg)
        continue;
      auto It = Sel.Match.NodeMap.find(Ref.Def);
      if (It == Sel.Match.NodeMap.end())
        continue; // The Cond root of a jump rule.
      L.setValue(NodeRef(const_cast<Node *>(It->second), Ref.Index),
                 Out.Results[R]);
    }
    SynthCount += Sel.Match.CoveredNodes.size();
  }

  /// Materializes a value into a register-or-immediate operand as the
  /// goal's Reg role demands (registers only; constants get a mov).
  MOperand materialize(NodeRef Ref) {
    if (L.hasValue(Ref))
      return L.value(Ref);
    if (Ref.Def->opcode() == Opcode::Const) {
      if (const GoalInstruction *MovRi = Run.Library.immediateMoveGoal()) {
        EmittedGoal Out = MovRi->Emit(
            L.machineFunction(),
            {MOperand::imm(Ref.Def->constValue())});
        for (MachineInstr &Instr : Out.Instrs)
          MB->append(std::move(Instr));
        L.setValue(Ref, Out.Results[0]);
        ++SynthCount;
        return Out.Results[0];
      }
      ++FallbackCount;
      return L.regOperand(MB, Ref);
    }
    return L.regOperand(MB, Ref);
  }

  /// Emits a flag-setting compare for a bool value and returns the
  /// condition code (fallback path for unmatched conditions).
  CondCode emitCondition(NodeRef Condition) {
    const Node *Def = Condition.Def;
    if (Def->opcode() == Opcode::Cmp) {
      MOperand Lhs = materialize(Def->operand(0));
      MOperand Rhs = L.flexOperand(MB, Def->operand(1));
      MB->append({MOpcode::Cmp, CondCode::E, {}, Lhs, Rhs});
      ++FallbackCount;
      return condCodeForRelation(Def->relation());
    }
    reportFatalError("cannot lower branch condition of node #" +
                     std::to_string(Def->id()));
  }

  /// Naive per-operation fallback lowering (counts against coverage).
  void emitFallback(Node *S) {
    auto def = [&](unsigned Index, MOperand Op) {
      L.setValue(NodeRef(S, Index), std::move(Op));
    };
    auto newReg = [&] { return L.machineFunction().newReg(); };

    switch (S->opcode()) {
    case Opcode::Const:
      return; // Materialized on demand.
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Shrs: {
      static const std::map<Opcode, MOpcode> Map = {
          {Opcode::Add, MOpcode::Add},  {Opcode::Sub, MOpcode::Sub},
          {Opcode::Mul, MOpcode::Imul}, {Opcode::And, MOpcode::And},
          {Opcode::Or, MOpcode::Or},    {Opcode::Xor, MOpcode::Xor},
          {Opcode::Shl, MOpcode::Shl},  {Opcode::Shr, MOpcode::Shr},
          {Opcode::Shrs, MOpcode::Sar}};
      MOperand Lhs = materialize(S->operand(0));
      MOperand Rhs = L.flexOperand(MB, S->operand(1));
      MReg Dst = newReg();
      MB->append({Map.at(S->opcode()), CondCode::E, MOperand::reg(Dst),
                  Lhs, Rhs});
      def(0, MOperand::reg(Dst));
      break;
    }
    case Opcode::Not:
    case Opcode::Minus: {
      MOperand Src = materialize(S->operand(0));
      MReg Dst = newReg();
      MB->append({S->opcode() == Opcode::Not ? MOpcode::Not : MOpcode::Neg,
                  CondCode::E, MOperand::reg(Dst), Src, {}});
      def(0, MOperand::reg(Dst));
      break;
    }
    case Opcode::Load: {
      MOperand Pointer = materialize(S->operand(1));
      MemRef Ref;
      Ref.Base = Pointer.R;
      MReg Dst = newReg();
      MB->append({MOpcode::Mov, CondCode::E, MOperand::reg(Dst),
                  MOperand::mem(Ref), {}});
      def(0, MOperand::none());
      def(1, MOperand::reg(Dst));
      break;
    }
    case Opcode::Store: {
      MOperand Pointer = materialize(S->operand(1));
      MOperand Value = L.flexOperand(MB, S->operand(2));
      MemRef Ref;
      Ref.Base = Pointer.R;
      MB->append({MOpcode::Mov, CondCode::E, MOperand::mem(Ref), Value, {}});
      def(0, MOperand::none());
      break;
    }
    case Opcode::Mux: {
      MOperand TrueValue = materialize(S->operand(1));
      MOperand FalseValue = materialize(S->operand(2));
      CondCode CC = emitCondition(S->operand(0));
      MReg Dst = newReg();
      MB->append(
          {MOpcode::Cmov, CC, MOperand::reg(Dst), TrueValue, FalseValue});
      def(0, MOperand::reg(Dst));
      break;
    }
    case Opcode::Cmp:
    case Opcode::Cond:
      return; // Handled at their consumers.
    case Opcode::Arg:
      return;
    }
    ++FallbackCount;
  }

  void run() {
    Facts.emplace(BB->body());
    computeLiveness();
    if (Run.Tiling)
      orderCandidatesByCost(*Run.Tiling);
    selectBranch();
    selectBody();

    for (Node *S : Live) {
      auto It = SelectionsByRoot.find(S);
      if (It != SelectionsByRoot.end()) {
        emitSelection(It->second);
        continue;
      }
      if (!Covered.count(S))
        emitFallback(S);
    }

    L.lowerTerminator(BB, [this](MachineBlock *, NodeRef Condition) {
      if (BranchSelection) {
        emitSelection(*BranchSelection);
        return *BranchSelection->JumpCC;
      }
      return emitCondition(Condition);
    });
  }
};

} // namespace

SelectionResult selgen::runRuleSelection(const Function &F,
                                         const PreparedLibrary &Library,
                                         RuleCandidateSource &Source,
                                         const std::string &SelectorName,
                                         SelectionObserver *Observer,
                                         std::optional<CostKind> Tiling) {
  Timer Clock;
  SelectionResult Result;
  FunctionLowering Lowering(F, SelectorName);
  SelectionRun Run{Library, Source, Tiling, 0, F.width(), {}};
  if (Tiling && *Tiling != CostKind::Unit)
    if (const GoalInstruction *MovRi = Library.immediateMoveGoal())
      Run.ConstCost = deriveRuleCost(*MovRi).get(*Tiling);
  uint64_t BestCoverCost = 0;

  for (const auto &BB : F.blocks()) {
    BlockSelection Block(Lowering, BB.get(), Run);
    Block.run();
    Result.CoveredOperations += Block.SynthCount;
    Result.FallbackOperations += Block.FallbackCount;
    BestCoverCost += Block.BestCoverCost;
  }
  SelectionCounters &Counters = Run.Counters;
  Counters.NodesVisited += Source.takeNodesVisited();

  Result.TotalOperations = F.numOperations();
  Result.MF = Lowering.takeMachineFunction();
  removeDeadInstructions(*Result.MF);
  Result.SelectionSeconds = Clock.elapsedSeconds();

  if (Observer) {
    Observer->RulesTried += Counters.RulesTried;
    Observer->NodesVisited += Counters.NodesVisited;
    Observer->PrecondProved += Counters.PrecondProved;
    Observer->SelectUs += Result.SelectionSeconds * 1e6;
    return Result;
  }

  Statistics &Stats = Statistics::get();
  Stats.add("selector.rules_tried",
            static_cast<int64_t>(Counters.RulesTried));
  Stats.add("matcher.nodes_visited",
            static_cast<int64_t>(Counters.NodesVisited));
  Stats.add("matcher.precond_proved",
            static_cast<int64_t>(Counters.PrecondProved));
  Stats.add("selector.select_us",
            static_cast<int64_t>(Result.SelectionSeconds * 1e6));
  if (Tiling) {
    Stats.add("tiling.functions", 1);
    Stats.add("tiling.best_cover_cost", static_cast<int64_t>(BestCoverCost));
  }
  SelectionTelemetry Telemetry;
  Telemetry.Function = F.name();
  Telemetry.Selector = SelectorName;
  Telemetry.SelectUs = Result.SelectionSeconds * 1e6;
  Telemetry.RulesTried = Counters.RulesTried;
  Telemetry.MatcherNodesVisited = Counters.NodesVisited;
  Telemetry.CoveredOperations = Result.CoveredOperations;
  Telemetry.FallbackOperations = Result.FallbackOperations;
  Stats.recordSelection(std::move(Telemetry));
  return Result;
}

void selgen::setStaticPrecondElision(bool Enabled) {
  StaticPrecondElision = Enabled;
}

bool selgen::staticPrecondElisionEnabled() { return StaticPrecondElision; }
