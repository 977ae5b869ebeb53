//===- MatcherAutomaton.cpp - Discrimination-tree rule matcher ----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "matchergen/MatcherAutomaton.h"

#include "support/AtomicFile.h"
#include "support/Error.h"

#include <algorithm>
#include <cstring>
#include <map>

using namespace selgen;

namespace {

/// One trie transition while the tree is being built. Wildcard edges
/// consume one subject value without descending; node edges test one
/// subject position structurally and open its operand positions.
struct Edge {
  enum class Kind { Wildcard, Node };
  Kind EdgeKind = Kind::Wildcard;
  uint32_t To = 0;
  // Wildcard symbols: the pattern argument's sort.
  Sort WildSort = Sort::boolean();
  // Node symbols: the structural tests of Matcher's matchValue.
  uint32_t ResultIndex = binfmt::AnyResultIndex;
  Opcode Op = Opcode::Arg;
  bool HasConst = false;
  BitValue ConstValue;
  bool HasRelation = false;
  Relation Rel = Relation::Eq;
};

struct State {
  std::vector<Edge> Edges;
  /// Rule indices accepted here, ascending (priority order).
  std::vector<uint32_t> AcceptRules;
};

/// Structural equality of two symbols (the edge minus its target).
bool symbolsEqual(const Edge &A, const Edge &B) {
  if (A.EdgeKind != B.EdgeKind)
    return false;
  if (A.EdgeKind == Edge::Kind::Wildcard)
    return A.WildSort == B.WildSort;
  if (A.ResultIndex != B.ResultIndex || A.Op != B.Op ||
      A.HasConst != B.HasConst || A.HasRelation != B.HasRelation)
    return false;
  if (A.HasConst && (A.ConstValue.width() != B.ConstValue.width() ||
                     A.ConstValue != B.ConstValue))
    return false;
  if (A.HasRelation && A.Rel != B.Rel)
    return false;
  return true;
}

/// Fills the structural tests of a node symbol from a pattern node.
void fillNodeSymbol(Edge &E, const Node *N) {
  E.EdgeKind = Edge::Kind::Node;
  E.Op = N->opcode();
  if (N->opcode() == Opcode::Const) {
    E.HasConst = true;
    E.ConstValue = N->constValue();
  } else if (N->opcode() == Opcode::Cmp) {
    E.HasRelation = true;
    E.Rel = N->relation();
  }
}

/// Pre-order flattening of a pattern value: wildcard for arguments
/// (no descent), node symbol plus operand values otherwise.
void flattenValue(NodeRef V, std::vector<Edge> &Out) {
  const Node *N = V.Def;
  Edge E;
  if (N->opcode() == Opcode::Arg) {
    E.EdgeKind = Edge::Kind::Wildcard;
    E.WildSort = N->resultSort(0);
    Out.push_back(E);
    return;
  }
  E.ResultIndex = V.Index;
  fillNodeSymbol(E, N);
  Out.push_back(E);
  for (const NodeRef &Operand : N->operands())
    flattenValue(Operand, Out);
}

/// The trie under construction: state 0 is the body root, state 1 the
/// jump root.
class TrieBuilder {
public:
  static constexpr uint32_t BodyRoot = 0;
  static constexpr uint32_t JumpRoot = 1;

  TrieBuilder() : States(2) {}

  void insertPattern(const AutomatonPattern &P) {
    std::vector<Edge> Symbols;
    uint32_t Root;
    if (P.IsJump) {
      // Jump rules match their Cond operand against the branch
      // condition value; the Cond node itself is not part of the string.
      flattenValue(P.Root->operand(0), Symbols);
      Root = JumpRoot;
    } else {
      // The body root aligns with a subject *node*; its result index is
      // not tested (Matcher's matchPattern starts at matchNode).
      Edge E;
      fillNodeSymbol(E, P.Root);
      Symbols.push_back(E);
      for (const NodeRef &Operand : P.Root->operands())
        flattenValue(Operand, Symbols);
      Root = BodyRoot;
    }
    uint32_t StateId = Root;
    for (const Edge &Symbol : Symbols)
      StateId = extend(StateId, Symbol);
    States[StateId].AcceptRules.push_back(P.RuleIndex);
  }

  /// Lays the trie out as a bin-v2 image (BinaryAutomaton.h).
  std::string emitImage(const std::string &LibraryFingerprint,
                        uint32_t NumRules,
                        const std::vector<RuleCost> &RuleCosts,
                        uint32_t CostVersion) const;

private:
  /// Follows (or creates) the edge for \p Symbol out of \p From.
  uint32_t extend(uint32_t From, const Edge &Symbol) {
    for (const Edge &E : States[From].Edges)
      if (symbolsEqual(E, Symbol))
        return E.To;
    Edge New = Symbol;
    New.To = static_cast<uint32_t>(States.size());
    States.emplace_back();
    States[From].Edges.push_back(New);
    return New.To;
  }

  std::vector<State> States;
};

/// Appends \p Bytes at the next 8-aligned position; returns the offset.
uint32_t appendSection(std::string &Out, const void *Data, size_t Bytes) {
  Out.resize((Out.size() + 7) / 8 * 8, '\0');
  uint32_t Off = static_cast<uint32_t>(Out.size());
  if (Bytes)
    Out.append(static_cast<const char *>(Data), Bytes);
  return Off;
}

template <typename T>
uint32_t appendTable(std::string &Out, const std::vector<T> &Table) {
  return appendSection(Out, Table.data(), Table.size() * sizeof(T));
}

std::string TrieBuilder::emitImage(const std::string &LibraryFingerprint,
                                   uint32_t NumRules,
                                   const std::vector<RuleCost> &RuleCosts,
                                   uint32_t CostVersion) const {
  std::vector<binfmt::State> BStates;
  std::vector<binfmt::Edge> BEdges;
  std::vector<uint32_t> BAccepts;
  std::vector<uint64_t> Pool;
  BStates.reserve(States.size());

  for (const State &S : States) {
    binfmt::State BS;
    BS.EdgeBegin = static_cast<uint32_t>(BEdges.size());
    BS.EdgeCount = static_cast<uint32_t>(S.Edges.size());
    BS.AcceptBegin = static_cast<uint32_t>(BAccepts.size());
    BS.AcceptCount = static_cast<uint32_t>(S.AcceptRules.size());
    for (const Edge &E : S.Edges) {
      binfmt::Edge BE;
      BE.To = E.To;
      if (E.EdgeKind == Edge::Kind::Wildcard) {
        BE.Kind = binfmt::EdgeKindWildcard;
        BE.ResultIndex = binfmt::AnyResultIndex;
        BE.OpOrSort = static_cast<uint8_t>(E.WildSort.Kind);
        BE.Width = E.WildSort.Width;
      } else {
        BE.Kind = binfmt::EdgeKindNode;
        BE.ResultIndex = E.ResultIndex;
        BE.OpOrSort = static_cast<uint8_t>(E.Op);
        if (E.HasConst) {
          BE.Flags |= binfmt::FlagHasConst;
          BE.Width = E.ConstValue.width();
          BE.ConstWordBegin = static_cast<uint32_t>(Pool.size());
          for (unsigned I = 0; I < E.ConstValue.wordCount(); ++I)
            Pool.push_back(E.ConstValue.word(I));
        }
        if (E.HasRelation) {
          BE.Flags |= binfmt::FlagHasRelation;
          BE.Rel = static_cast<uint8_t>(E.Rel);
        }
      }
      BEdges.push_back(BE);
    }
    BAccepts.insert(BAccepts.end(), S.AcceptRules.begin(),
                    S.AcceptRules.end());
    BStates.push_back(BS);
  }

  std::vector<binfmt::RuleCostRec> BCosts;
  BCosts.reserve(RuleCosts.size());
  for (const RuleCost &C : RuleCosts)
    BCosts.push_back({C.Instructions, C.Latency, C.Size});

  // The root index: body-root edge ordinals grouped by opcode, so
  // candidate discovery starts at the right subtree in
  // O(log #opcodes).
  std::map<Opcode, std::vector<uint32_t>> BodyRootEdgesByOpcode;
  const State &Body = States[BodyRoot];
  for (uint32_t I = 0; I < Body.Edges.size(); ++I)
    BodyRootEdgesByOpcode[Body.Edges[I].Op].push_back(I);
  std::vector<binfmt::RootEntry> RootIdx;
  std::vector<uint32_t> RootPool;
  for (const auto &[Op, Indices] : BodyRootEdgesByOpcode) {
    binfmt::RootEntry RE;
    RE.Op = static_cast<uint32_t>(Op);
    RE.PoolBegin = static_cast<uint32_t>(RootPool.size());
    RE.PoolCount = static_cast<uint32_t>(Indices.size());
    RootPool.insert(RootPool.end(), Indices.begin(), Indices.end());
    RootIdx.push_back(RE);
  }

  std::string Out(sizeof(binfmt::Header), '\0');
  binfmt::Header H;
  H.Magic = binfmt::Magic;
  H.Version = binfmt::Version;
  H.EndianTag = binfmt::EndianTag;
  H.NumRules = NumRules;
  H.NumStates = static_cast<uint32_t>(BStates.size());
  H.NumEdges = static_cast<uint32_t>(BEdges.size());
  H.NumAccepts = static_cast<uint32_t>(BAccepts.size());
  H.NumConstWords = static_cast<uint32_t>(Pool.size());
  H.BodyRoot = BodyRoot;
  H.JumpRoot = JumpRoot;
  H.StatesOff = appendTable(Out, BStates);
  H.EdgesOff = appendTable(Out, BEdges);
  H.AcceptsOff = appendTable(Out, BAccepts);
  H.ConstWordsOff = appendTable(Out, Pool);
  H.RootIndexOff = appendTable(Out, RootIdx);
  H.RootIndexCount = static_cast<uint32_t>(RootIdx.size());
  H.RootPoolOff = appendTable(Out, RootPool);
  H.RootPoolCount = static_cast<uint32_t>(RootPool.size());
  H.RuleCostsOff = appendTable(Out, BCosts);
  H.CostVersion = CostVersion;
  H.FingerprintOff = static_cast<uint32_t>(Out.size());
  H.FingerprintLen = static_cast<uint32_t>(LibraryFingerprint.size());
  Out += LibraryFingerprint;
  H.TotalBytes = static_cast<uint32_t>(Out.size());
  H.PayloadCrc = crc32(Out.data() + sizeof(H), Out.size() - sizeof(H));
  H.HeaderCrc = crc32(&H, offsetof(binfmt::Header, HeaderCrc));
  std::memcpy(Out.data(), &H, sizeof(H));
  return Out;
}

} // namespace

MatcherAutomaton
MatcherAutomaton::compile(const std::vector<AutomatonPattern> &Patterns,
                          const std::string &LibraryFingerprint,
                          uint32_t NumRules,
                          const std::vector<RuleCost> &RuleCosts,
                          uint32_t CostVersion) {
  // Insert in ascending priority order so every accept list and the
  // whole trie layout are deterministic in the library order.
  std::vector<const AutomatonPattern *> Sorted;
  for (const AutomatonPattern &P : Patterns)
    Sorted.push_back(&P);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const AutomatonPattern *L, const AutomatonPattern *R) {
              return L->RuleIndex < R->RuleIndex;
            });
  TrieBuilder Builder;
  for (const AutomatonPattern *P : Sorted)
    Builder.insertPattern(*P);
  std::string Bytes =
      Builder.emitImage(LibraryFingerprint, NumRules, RuleCosts, CostVersion);

  MatcherAutomaton A;
  A.Image.resize((Bytes.size() + 7) / 8);
  std::memcpy(A.Image.data(), Bytes.data(), Bytes.size());
  std::string Error;
  std::optional<BinaryAutomatonView> View =
      BinaryAutomatonView::fromMemory(A.Image.data(), Bytes.size(), &Error);
  if (!View)
    reportFatalError("matcher automaton compiler emitted an invalid image: " +
                     Error);
  A.View = *View;
  return A;
}

bool MatcherAutomaton::writeBinaryFile(const std::string &Path) const {
  return writeFileAtomic(Path, serializeBinary());
}
