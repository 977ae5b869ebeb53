//===- Common.cpp - Shared pieces of the benchmark workloads ----------------===//
//
// Part of the selgen benchmark harness.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "ir/Printer.h"
#include "isel/AutomatonSelector.h"
#include "support/Rng.h"
#include "x86/Emulator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include <sys/resource.h>

using namespace perfbench;
using namespace selgen;

void Outcome::problem(const std::string &Message) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", Message.c_str());
  Correct = false;
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * Values.size()));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid]
                           : (Values[Mid - 1] + Values[Mid]) / 2;
}

double perfbench::peakRssMb() {
  struct rusage Usage {};
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
  return Usage.ru_maxrss / 1024.0; // Linux reports KiB.
}

std::vector<CheckInput> perfbench::makeCheckInputs(uint64_t Seed,
                                                   unsigned Count,
                                                   unsigned NumArgs,
                                                   bool Interesting) {
  Rng Random(Seed ^ 0x5EEDC0DEull);
  std::vector<CheckInput> Inputs(Count);
  for (CheckInput &In : Inputs) {
    for (unsigned A = 0; A < NumArgs; ++A)
      In.Args.push_back(Interesting ? Random.nextInterestingBitValue(Width)
                                    : Random.nextBitValue(Width));
    for (unsigned B = 0; B < 256; ++B)
      In.Memory.storeByte(B, static_cast<uint8_t>(Random.nextBelow(256)));
  }
  return Inputs;
}

CheckResult
perfbench::checkAgainstInterpreter(const Function &F, const MachineFunction &MF,
                                   const std::vector<CheckInput> &Inputs,
                                   bool SkipUndefined) {
  CheckResult Result;
  auto fail = [&Result](const std::string &Why) {
    if (Result.Ok)
      Result.Detail = Why;
    Result.Ok = false;
  };
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const CheckInput &In = Inputs[I];
    const std::string Tag = "input " + std::to_string(I) + ": ";
    FunctionResult Reference;
    {
      ScopedSpan Span("ir.runFunction");
      int64_t Start = trace::nowNs();
      Reference = runFunction(F, In.Args, In.Memory, 1u << 22);
      Result.InterpSeconds += (trace::nowNs() - Start) / 1e9;
    }
    Result.IrOps += Reference.ExecutedOperations;
    if (Reference.Undefined && SkipUndefined)
      continue;
    if (Reference.Undefined || Reference.StepLimitHit ||
        !Reference.FinalMemory) {
      fail(Tag + "the interpreter found undefined behaviour or no end");
      continue;
    }

    std::map<MReg, BitValue> Regs;
    const auto &ArgRegs = MF.entry()->ArgRegs;
    for (size_t A = 0; A < ArgRegs.size() && A < In.Args.size(); ++A)
      Regs[ArgRegs[A]] = In.Args[A];
    MachineRunResult Machine;
    {
      ScopedSpan Span("x86.runMachineFunction");
      Machine = runMachineFunction(MF, Regs, In.Memory, 1u << 24);
    }
    Result.Cycles += Machine.Cycles;
    if (Machine.StepLimitHit) {
      fail(Tag + "the machine code hit the step limit");
      continue;
    }
    if (Machine.ReturnValues != Reference.ReturnValues) {
      fail(Tag + "return values differ");
      continue;
    }
    std::set<uint64_t> Addresses;
    for (const auto &Entry : Reference.FinalMemory->bytes())
      Addresses.insert(Entry.first);
    for (const auto &Entry : Machine.Memory.bytes())
      Addresses.insert(Entry.first);
    for (uint64_t Address : Addresses)
      if (Reference.FinalMemory->peekByte(Address) !=
          Machine.Memory.peekByte(Address)) {
        fail(Tag + "final memory differs at address " +
             std::to_string(Address));
        break;
      }
  }
  return Result;
}

std::string perfbench::printFunctionIr(const Function &F) {
  std::string Text;
  for (const auto &Block : F.blocks())
    Text += Block->name() + ":\n" + printGraph(Block->body());
  return Text;
}

std::string perfbench::withoutHeader(const std::string &Asm) {
  size_t Newline = Asm.find('\n');
  return Newline == std::string::npos ? std::string() : Asm.substr(Newline);
}

WorkloadProfile perfbench::makeVariant(const WorkloadProfile &Base,
                                       uint64_t VariantSeed, double Scale) {
  WorkloadProfile V = Base;
  V.Seed = VariantSeed;
  V.BodyOps = static_cast<unsigned>(std::lround(Base.BodyOps * Scale));
  return V;
}

namespace {

bool loadOnce(const std::string &LibraryPath, const std::string &ImagePath,
              LoadedLibrary &L, std::string &Error) {
  L.Goals = std::make_unique<GoalLibrary>(
      GoalLibrary::build(Width, GoalLibrary::allGroups()));
  {
    ScopedSpan Span("pattern.loadFromFile");
    L.Database = PatternDatabase::loadFromFile(LibraryPath);
    L.Database.filterNonNormalized();
    L.Database.sortSpecificFirst();
  }
  {
    ScopedSpan Span("isel.PreparedLibrary");
    L.Library = std::make_unique<PreparedLibrary>(L.Database, *L.Goals);
  }
  MatcherAutomaton Automaton = [&] {
    ScopedSpan Span("matchergen.buildMatcherAutomaton");
    return buildMatcherAutomaton(*L.Library);
  }();
  L.States = Automaton.numStates();
  {
    ScopedSpan Span("matchergen.writeBinaryFile");
    if (!Automaton.writeBinaryFile(ImagePath)) {
      Error = "cannot write " + ImagePath;
      return false;
    }
  }
  ScopedSpan Span("matchergen.mapBinary");
  L.Image = MatcherAutomaton::mapBinary(ImagePath, &Error);
  if (!L.Image)
    return false;
  Error = automatonStalenessError(L.Image->view(), *L.Library);
  return Error.empty();
}

} // namespace

bool perfbench::setUpLibrary(const std::string &LibraryPath,
                             const std::string &ImagePath, LoadedLibrary &L,
                             double &Seconds, std::string &Error) {
  bool Ok = true;
  Seconds = medianSetupSeconds([&] {
    LoadedLibrary Fresh;
    Ok = Ok && loadOnce(LibraryPath, ImagePath, Fresh, Error);
    L = std::move(Fresh);
  });
  return Ok;
}

void perfbench::addSetUpLayers(Outcome &Out, const LoadedLibrary &L) {
  layer(Out, "pattern.load_ms", spanMedian("pattern.loadFromFile", "ms"),
        "ms");
  layer(Out, "isel.prepare_ms", spanMedian("isel.PreparedLibrary", "ms"),
        "ms");
  layer(Out, "matchergen.build_ms",
        spanMedian("matchergen.buildMatcherAutomaton", "ms"), "ms");
  layer(Out, "matchergen.image_write_ms",
        spanMedian("matchergen.writeBinaryFile", "ms"), "ms");
  layer(Out, "matchergen.image_map_us",
        spanMedian("matchergen.mapBinary", "us"), "us");
  layer(Out, "matchergen.image_bytes",
        static_cast<double>(L.Image->sizeBytes()), "bytes");
  layer(Out, "matchergen.states", static_cast<double>(L.States), "count");
}

void perfbench::layer(Outcome &Out, const std::string &Name, double Value,
                      const std::string &Unit) {
  Out.PerLayer[Name] = Metric{Value, Unit};
}

double perfbench::spanMedian(const std::string &SpanName,
                             const std::string &Unit) {
  std::map<std::string, SpanSummary> All = trace::summarize();
  auto It = All.find(SpanName);
  if (It == All.end())
    return 0;
  double Us = median(It->second.DurationsUs);
  return Unit == "ms" ? Us / 1e3 : Us;
}
