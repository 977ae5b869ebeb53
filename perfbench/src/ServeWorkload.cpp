//===- ServeWorkload.cpp - serve-tiling ------------------------------------===//
//
// Part of the selgen benchmark harness.
//
// An in-process SelectionServer (one selection worker) runs
// cost-minimal tiling under the latency cost model off the mapped
// image of a large sound library (bench_85's inflated variants, kept
// only when PatternVerifier proves them; data/serve-library-w8.dat).
// Two closed-loop clients, each on its own socketpair connection,
// send a batch of 8 profile names and wait for the reply before
// sending the next. Batch contents come from --seed.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "isel/AutomatonSelector.h"
#include "isel/TilingSelector.h"
#include "serve/SelectionServer.h"
#include "serve/SelectionService.h"
#include "support/Rng.h"
#include "support/Wire.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;
using namespace selgen;

namespace {

// One worker keeps the run clear of the machine's other cores: with two,
// round-trip tails grew with whatever else ran on the box.
constexpr unsigned ServiceThreads = 1;
constexpr unsigned Clients = 2;
constexpr unsigned BatchSize = 8;
constexpr unsigned BatchesPerClient = 16; ///< Cycled through in order.
/// A traced run records spans in half of the time slices of this
/// length: traced, untraced, untraced, traced, ..., so that each kind
/// takes as many odd slices as even ones (compile-variants' rounds ran
/// slower at odd positions whatever their kind).
constexpr int64_t TraceSliceNs = 500'000'000;
bool tracedSlice(int64_t Slice) { return Slice % 4 == 0 || Slice % 4 == 3; }

/// What one client thread saw.
struct ClientLog {
  std::vector<double> RoundTripMs;
  /// Round trips per entry of the client's batch plan.
  std::vector<std::vector<double>> PlanRoundTripMs;
  std::vector<double> OverheadMs; ///< Round trip minus service time.
  std::vector<double> ServiceMs;
  std::vector<double> SelectUs;
  /// Completion time of every served batch, for the tracing overhead.
  std::vector<int64_t> DoneNs;
  uint64_t Batches = 0, Functions = 0, ErrorReplies = 0;
  uint64_t RulesTried = 0, NodesVisited = 0;
  std::vector<std::string> Problems;
};

void runClient(int Fd, unsigned Client, const std::vector<BatchRequest> &Plan,
               const std::map<std::string, std::string> &Expected,
               int64_t DeadlineNs, ClientLog &Log) {
  uint64_t NextId = static_cast<uint64_t>(Client) << 32;
  Log.PlanRoundTripMs.resize(Plan.size());
  size_t Step = 0;
  while (trace::nowNs() < DeadlineNs) {
    const size_t Entry = Step++ % Plan.size();
    BatchRequest Request = Plan[Entry];
    Request.Id = ++NextId;
    ScopedSpan Root("serve.batch", Request.Id);
    int64_t Start = trace::nowNs();
    std::string Payload;
    {
      ScopedSpan Span("serve.encodeBatchRequest", Request.Id);
      Payload = encodeBatchRequest(Request);
    }
    int64_t Sent = trace::nowNs();
    wire::Frame Reply;
    {
      ScopedSpan Span("serve.roundTrip", Request.Id);
      if (!wire::writeFrame(Fd, wire::Request, Payload) ||
          wire::readFrame(Fd, Reply, 60000) != wire::ReadStatus::Ok) {
        Log.Problems.push_back("connection failed mid-request");
        return;
      }
    }
    int64_t Received = trace::nowNs();
    ++Log.Batches;
    if (Reply.Type != wire::Response) {
      ++Log.ErrorReplies;
      Log.Problems.push_back("typed error reply: " +
                             decodeServeError(Reply.Payload).Message);
      continue;
    }
    std::optional<BatchReply> Decoded;
    {
      ScopedSpan Span("serve.decodeBatchReply", Request.Id);
      Decoded = decodeBatchReply(Reply.Payload);
    }
    int64_t End = trace::nowNs();
    if (!Decoded || Decoded->Id != Request.Id ||
        Decoded->Results.size() != Request.Workloads.size()) {
      Log.Problems.push_back("malformed or mismatched reply");
      continue;
    }
    Log.DoneNs.push_back(End);
    Log.RoundTripMs.push_back((End - Start) / 1e6);
    Log.PlanRoundTripMs[Entry].push_back((End - Start) / 1e6);
    Log.ServiceMs.push_back(Decoded->WallUs / 1e3);
    Log.OverheadMs.push_back((Received - Sent) / 1e6 -
                             Decoded->WallUs / 1e3);
    for (const BatchReply::Result &R : Decoded->Results) {
      ++Log.Functions;
      Log.RulesTried += R.RulesTried;
      Log.NodesVisited += R.NodesVisited;
      Log.SelectUs.push_back(R.SelectUs);
      auto It = Expected.find(R.Workload);
      if (It == Expected.end() || It->second != R.Asm)
        Log.Problems.push_back("served code for " + R.Workload +
                               " differs from in-process selection");
    }
  }
}

template <typename T>
void append(std::vector<T> &To, const std::vector<T> &From) {
  To.insert(To.end(), From.begin(), From.end());
}

} // namespace

Outcome perfbench::runServeTiling(const Options &Opt) {
  Outcome Out;
  const std::string LibraryPath =
      Opt.LibraryOverride.empty()
          ? Opt.RepoRoot + "/perfbench/data/serve-library-w8.dat"
          : Opt.LibraryOverride;
  const std::string ImagePath = Opt.WorkDir + "/serve.matb";

  LoadedLibrary L;
  std::string Error;
  double SetupSeconds = 0;
  if (!setUpLibrary(LibraryPath, ImagePath, L, SetupSeconds, Error)) {
    Out.problem("set-up failed: " + Error);
    return Out;
  }
  std::fprintf(stderr, "serve-tiling: %zu rules, %zu automaton states\n",
               L.Library->rules().size(), L.States);

  // --- Reference: in-process tiling over the same image -----------------
  std::map<std::string, std::string> Expected;
  uint64_t DynCycles = 0, CodeInstrs = 0, Covered = 0, Fallback = 0;
  uint64_t IrOps = 0;
  double InterpSeconds = 0;
  for (const WorkloadProfile &P : cint2000Profiles()) {
    Function F = [&] {
      ScopedSpan Span("eval.buildWorkload");
      return buildWorkload(P, Width);
    }();
    SelectionResult Selected;
    {
      ScopedSpan Span("isel.runTilingSelection");
      MappedCandidateSource Source(*L.Library, L.Image->view());
      Selected = runTilingSelection(F, *L.Library, Source, CostKind::Latency);
    }
    Expected[P.Name] = printMachineFunction(*Selected.MF);
    CheckResult R =
        checkAgainstInterpreter(F, *Selected.MF, makeCheckInputs(P.Seed, 2));
    if (!R.Ok)
      Out.problem(P.Name + ": tiled code disagrees with the interpreter: " +
                  R.Detail);
    DynCycles += R.Cycles;
    IrOps += R.IrOps;
    InterpSeconds += R.InterpSeconds;
    CodeInstrs += Selected.MF->numInstructions();
    Covered += Selected.CoveredOperations;
    Fallback += Selected.FallbackOperations;
  }

  // --- Seeded batch plans -------------------------------------------------
  // Each batch names BatchSize distinct profiles in a seeded order, so
  // batches differ in composition but not wildly in work.
  const std::vector<WorkloadProfile> &Profiles = cint2000Profiles();
  std::vector<std::vector<BatchRequest>> Plans(Clients);
  for (unsigned C = 0; C < Clients; ++C) {
    Rng Random(Opt.Seed * 0x9E3779B97F4A7C15ull + C);
    for (unsigned B = 0; B < BatchesPerClient; ++B) {
      std::vector<std::string> Names;
      for (const WorkloadProfile &P : Profiles)
        Names.push_back(P.Name);
      for (size_t I = Names.size(); I > 1; --I)
        std::swap(Names[I - 1], Names[Random.nextBelow(I)]);
      BatchRequest Request;
      Request.Width = Width;
      Request.Workloads.assign(Names.begin(), Names.begin() + BatchSize);
      Plans[C].push_back(std::move(Request));
    }
  }

  // --- Serve ---------------------------------------------------------------
  std::signal(SIGPIPE, SIG_IGN); // wire::writeFrame contract.
  SelectionService Service(*L.Library, L.Image->view(), Width, ServiceThreads,
                           /*Tiling=*/true, CostKind::Latency);
  ServerOptions ServerOpts;
  ServerOpts.PollMs = 5;
  SelectionServer Server(Service, ServerOpts);
  int Fds[Clients][2] = {};
  for (unsigned C = 0; C < Clients; ++C) {
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, Fds[C]) != 0) {
      Out.problem("socketpair failed");
      return Out;
    }
    Server.addConnection(Fds[C][0], Fds[C][0]);
  }
  std::thread ServerThread([&Server] { Server.run(); });

  std::vector<ClientLog> Logs(Clients);
  int64_t Start = trace::nowNs();
  int64_t Deadline = Start + static_cast<int64_t>(Opt.Seconds * 1e9);
  std::vector<std::thread> ClientThreads;
  for (unsigned C = 0; C < Clients; ++C)
    ClientThreads.emplace_back([&, C] {
      runClient(Fds[C][1], C, Plans[C], Expected, Deadline, Logs[C]);
      wire::writeFrame(Fds[C][1], wire::Shutdown, std::string());
    });
  // A traced run mixes slices with and without spans; the served rate
  // in each kind gives the tracing overhead, measured in the same
  // process and minutes as the traced figures.
  if (Opt.Trace)
    for (int64_t Slice = 0; Start + Slice * TraceSliceNs < Deadline;
         ++Slice) {
      trace::setEnabled(tracedSlice(Slice));
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min(Deadline, Start + (Slice + 1) * TraceSliceNs) -
          trace::nowNs()));
    }
  for (std::thread &T : ClientThreads)
    T.join();
  trace::setEnabled(Opt.Trace);
  double WallSeconds = (trace::nowNs() - Start) / 1e9;
  Server.requestStop();
  ServerThread.join();
  for (unsigned C = 0; C < Clients; ++C) {
    close(Fds[C][0]);
    close(Fds[C][1]);
  }

  ClientLog All;
  // The tail is taken over each planned batch's median round trip, so it
  // names the slowest batches rather than the requests that a burst of
  // load on the machine happened to hit.
  std::vector<double> PlanMedianMs;
  for (const ClientLog &Log : Logs) {
    for (const std::vector<double> &Ms : Log.PlanRoundTripMs)
      if (!Ms.empty())
        PlanMedianMs.push_back(median(Ms));
    append(All.RoundTripMs, Log.RoundTripMs);
    append(All.OverheadMs, Log.OverheadMs);
    append(All.ServiceMs, Log.ServiceMs);
    append(All.SelectUs, Log.SelectUs);
    All.Batches += Log.Batches;
    All.Functions += Log.Functions;
    All.ErrorReplies += Log.ErrorReplies;
    All.RulesTried += Log.RulesTried;
    All.NodesVisited += Log.NodesVisited;
    for (const std::string &Problem : Log.Problems)
      Out.problem(Problem);
  }
  Out.Attempted = All.Batches;
  Out.Failed = All.ErrorReplies;
  if (All.Functions == 0) {
    Out.problem("no batch was served");
    return Out;
  }

  Out.EndToEnd["setup_s"] = {SetupSeconds, "s"};
  Out.EndToEnd["ops_per_s"] = {All.Functions / WallSeconds, "1/s"};
  Out.EndToEnd["p50_ms"] = {percentile(All.RoundTripMs, 0.50), "ms"};
  Out.EndToEnd["p99_ms"] = {percentile(PlanMedianMs, 0.99), "ms"};
  Out.EndToEnd["dyn_cycles"] = {static_cast<double>(DynCycles), "count"};
  Out.EndToEnd["code_instrs"] = {static_cast<double>(CodeInstrs), "count"};

  if (Opt.Trace) {
    const double Functions = static_cast<double>(All.Functions);
    layer(Out, "serve.encode_us",
          spanMedian("serve.encodeBatchRequest", "us"), "us");
    layer(Out, "serve.decode_us", spanMedian("serve.decodeBatchReply", "us"),
          "us");
    layer(Out, "serve.overhead_ms", median(All.OverheadMs), "ms");
    layer(Out, "serve.service_ms", median(All.ServiceMs), "ms");
    layer(Out, "serve.select_us", median(All.SelectUs), "us");
    layer(Out, "serve.queue_peak",
          static_cast<double>(Server.stats().QueuePeak.load()), "count");
    layer(Out, "isel.tiling_us", spanMedian("isel.runTilingSelection", "us"),
          "us");
    layer(Out, "eval.workload_build_us",
          spanMedian("eval.buildWorkload", "us"), "us");
    addSetUpLayers(Out, L);
    layer(Out, "isel.rules_tried", All.RulesTried / Functions, "count/fn");
    layer(Out, "matchergen.nodes_visited", All.NodesVisited / Functions,
          "count/fn");
    layer(Out, "isel.covered_ops", static_cast<double>(Covered), "count");
    layer(Out, "isel.fallback_ops", static_cast<double>(Fallback), "count");
    layer(Out, "ir.interp_ops_per_s", IrOps / InterpSeconds, "1/s");

    // Batches served per second in the traced and the untraced slices,
    // each batch counted in the slice in which its reply arrived.
    double Served[2] = {0, 0}, SliceSeconds[2] = {0, 0};
    for (const ClientLog &Log : Logs)
      for (int64_t Done : Log.DoneNs)
        if (Done < Deadline)
          Served[tracedSlice((Done - Start) / TraceSliceNs) ? 0 : 1] += 1;
    for (int64_t Slice = 0; Start + Slice * TraceSliceNs < Deadline; ++Slice)
      SliceSeconds[tracedSlice(Slice) ? 0 : 1] +=
          (std::min(Deadline, Start + (Slice + 1) * TraceSliceNs) -
           (Start + Slice * TraceSliceNs)) /
          1e9;
    const double TracedRate = Served[0] / SliceSeconds[0];
    layer(Out, "trace.ops_per_s", TracedRate * BatchSize, "1/s");
    if (Served[1] > 0)
      layer(Out, "trace.overhead_pct",
            100.0 * (Served[1] / SliceSeconds[1] / TracedRate - 1), "%");
  }
  return Out;
}
