//===- Trace.cpp - In-memory span recorder for the benchmark ----------------===//
//
// Part of the selgen benchmark harness.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

using namespace perfbench;

namespace {

std::atomic<bool> Enabled{false};
std::atomic<int64_t> NextId{0};
std::atomic<uint32_t> NextThread{0};

std::mutex StoreMutex;
std::vector<Span> Store; // Guarded by StoreMutex.

thread_local int64_t CurrentSpan = -1;
thread_local uint32_t ThreadIndex = NextThread.fetch_add(1);

} // namespace

void trace::setEnabled(bool On) { Enabled.store(On); }
bool trace::enabled() { return Enabled.load(std::memory_order_relaxed); }

int64_t trace::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedSpan::ScopedSpan(const char *Name, uint64_t RequestId)
    : Name(Name), RequestId(RequestId) {
  if (!trace::enabled())
    return;
  Id = NextId.fetch_add(1, std::memory_order_relaxed);
  SavedParent = CurrentSpan;
  CurrentSpan = Id;
  StartNs = trace::nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (Id < 0)
    return;
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = trace::nowNs();
  S.Id = Id;
  S.Parent = SavedParent;
  S.RequestId = RequestId;
  S.Thread = ThreadIndex;
  CurrentSpan = SavedParent;
  std::lock_guard<std::mutex> Lock(StoreMutex);
  Store.push_back(S);
}

std::vector<Span> trace::spans() {
  std::lock_guard<std::mutex> Lock(StoreMutex);
  return Store;
}

std::map<std::string, SpanSummary> trace::summarize() {
  std::vector<Span> All = spans();
  std::unordered_map<int64_t, size_t> ById;
  for (size_t I = 0; I < All.size(); ++I)
    ById[All[I].Id] = I;
  std::vector<double> Self(All.size());
  for (size_t I = 0; I < All.size(); ++I)
    Self[I] += (All[I].EndNs - All[I].StartNs) / 1e3;
  for (const Span &S : All) {
    auto It = ById.find(S.Parent);
    if (It != ById.end())
      Self[It->second] -= (S.EndNs - S.StartNs) / 1e3;
  }
  std::map<std::string, SpanSummary> Result;
  for (size_t I = 0; I < All.size(); ++I) {
    SpanSummary &Sum = Result[All[I].Name];
    Sum.SelfUs += Self[I];
    Sum.DurationsUs.push_back((All[I].EndNs - All[I].StartNs) / 1e3);
  }
  return Result;
}

std::map<std::string, double> trace::layerSelfMs() {
  std::map<std::string, double> Result;
  for (const auto &[Name, Sum] : summarize())
    Result[Name.substr(0, Name.find('.'))] += Sum.SelfUs / 1e3;
  return Result;
}

bool trace::writeChromeJson(const std::string &Path) {
  std::vector<Span> All = spans();
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  int64_t Origin = All.empty() ? 0 : All.front().StartNs;
  for (const Span &S : All)
    Origin = std::min(Origin, S.StartNs);
  std::fprintf(Out, "{\"traceEvents\":[");
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(Out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"request\":%llu}}",
                 I ? "," : "", S.Name, S.Thread, (S.StartNs - Origin) / 1e3,
                 (S.EndNs - S.StartNs) / 1e3, static_cast<long long>(S.Id),
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.RequestId));
  }
  std::fprintf(Out, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(Out) == 0;
}

double trace::calibrateSpanCostNs() {
  const int Reps = 20000;
  size_t Before = 0;
  {
    std::lock_guard<std::mutex> Lock(StoreMutex);
    Before = Store.size();
    Store.reserve(Before + Reps);
  }
  bool WasEnabled = enabled();
  setEnabled(true);
  int64_t Start = nowNs();
  for (int I = 0; I < Reps; ++I)
    ScopedSpan Probe("trace.calibrate");
  int64_t Elapsed = nowNs() - Start;
  setEnabled(WasEnabled);
  std::lock_guard<std::mutex> Lock(StoreMutex);
  Store.resize(Before);
  return static_cast<double>(Elapsed) / Reps;
}
