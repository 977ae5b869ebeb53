//===- Main.cpp - selgen benchmark entry point ------------------------------===//
//
// Part of the selgen benchmark harness.
//
//   selgen-perfbench --workload compile-variants|serve-tiling|synth-cold
//                    --seed N --seconds S --trace 0|1
//                    --repo-root DIR --work-dir DIR [--trace-out FILE]
//                    [--library FILE]
//   selgen-perfbench --make-serve-library FILE [--unverified]
//                    --repo-root DIR
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

// Keep in step with BENCHMARK.json (selftest.py checks that they match).
const MetricSpec EndToEndMetrics[] = {
    {"setup_s", "s"},      {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
    {"p50_ms", "ms"},      {"p99_ms", "ms"},      {"dyn_cycles", "count"},
    {"code_instrs", "count"}};

const MetricSpec PerLayerMetrics[] = {
    {"ir.self_ms", "ms"},
    {"ir.normalize_us", "us"},
    {"ir.interp_ops_per_s", "1/s"},
    {"eval.self_ms", "ms"},
    {"eval.workload_build_us", "us"},
    {"pattern.self_ms", "ms"},
    {"pattern.load_ms", "ms"},
    {"pattern.cache_warm_ms", "ms"},
    {"isel.self_ms", "ms"},
    {"isel.prepare_ms", "ms"},
    {"isel.first_match_us", "us"},
    {"isel.tiling_us", "us"},
    {"isel.rules_tried", "count/fn"},
    {"isel.covered_ops", "count"},
    {"isel.fallback_ops", "count"},
    {"matchergen.self_ms", "ms"},
    {"matchergen.build_ms", "ms"},
    {"matchergen.image_write_ms", "ms"},
    {"matchergen.image_map_us", "us"},
    {"matchergen.image_bytes", "bytes"},
    {"matchergen.states", "count"},
    {"matchergen.nodes_visited", "count/fn"},
    {"x86.self_ms", "ms"},
    {"x86.print_us", "us"},
    {"serve.self_ms", "ms"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.overhead_ms", "ms"},
    {"serve.service_ms", "ms"},
    {"serve.select_us", "us"},
    {"serve.queue_peak", "count"},
    {"synth.self_ms", "ms"},
    {"synth.cold_s", "s"},
    {"synth.rules", "count"},
    {"synth.goal_s_max", "s"},
    {"synth.queue_wait_s", "s"},
    {"synth.multisets_run", "count"},
    {"synth.multisets_skipped", "count"},
    {"synth.prescreen_kills", "count"},
    {"synth.steals", "count"},
    {"synth.synthesis_queries", "count"},
    {"synth.verification_queries", "count"},
    {"smt.checks", "count"},
    {"smt.check_s", "s"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.ops_per_s", "1/s"}};

// Layers whose self time the spans give. Synthesis is one call into
// synth; the solver's share of it comes from the program's own
// smt.check_us counter (smt.check_s).
const char *const Layers[] = {"ir",         "eval", "pattern", "isel",
                              "matchergen", "x86",  "serve",   "synth"};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: selgen-perfbench --workload "
               "compile-variants|serve-tiling|synth-cold --seed N --seconds S "
               "--trace 0|1 --repo-root DIR --work-dir DIR [--trace-out FILE] "
               "[--library FILE]\n"
               "       selgen-perfbench --make-serve-library FILE "
               "[--unverified] --repo-root DIR\n",
               Why);
  std::exit(2);
}

bool parseNumber(const std::string &Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text.c_str(), &End);
  return !Text.empty() && End && *End == '\0' && std::isfinite(Out);
}

void printResult(const Outcome &Out, bool Traced) {
  std::string Json = std::string("{\"correct\": ") +
                     (Out.Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Out.Attempted) +
                     ", \"failed\": " + std::to_string(Out.Failed) +
                     ", \"metrics\": {";
  const std::map<std::string, Metric> &Metrics =
      Traced ? Out.PerLayer : Out.EndToEnd;
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", M.Value);
    Json += std::string(First ? "" : ", ") + "\"" + Name +
            "\": {\"value\": " + Value + ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  std::string MakeLibrary;
  bool Unverified = false;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--unverified") {
      Unverified = true;
      continue;
    }
    if (I + 1 >= argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = argv[++I];
    double Number = 0;
    if (Flag == "--workload") {
      Opt.Workload = Value;
    } else if (Flag == "--seed") {
      if (!parseNumber(Value, Number) || Number < 0 ||
          Number != std::floor(Number))
        usage("--seed takes a whole number");
      Opt.Seed = static_cast<uint64_t>(Number);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseNumber(Value, Number) || Number <= 0 || Number > 3600)
        usage("--seconds takes a number in (0, 3600]");
      Opt.Seconds = Number;
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      Opt.Trace = Value == "1";
      HaveTrace = true;
    } else if (Flag == "--repo-root") {
      Opt.RepoRoot = Value;
    } else if (Flag == "--work-dir") {
      Opt.WorkDir = Value;
    } else if (Flag == "--trace-out") {
      Opt.TracePath = Value;
    } else if (Flag == "--library") {
      Opt.LibraryOverride = Value;
    } else if (Flag == "--make-serve-library") {
      MakeLibrary = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (Opt.RepoRoot.empty())
    usage("--repo-root is required");
  if (!MakeLibrary.empty())
    return makeServeLibrary(Opt, MakeLibrary, !Unverified);
  if (!HaveSeed || !HaveSeconds || !HaveTrace || Opt.WorkDir.empty())
    usage("--seed, --seconds, --trace and --work-dir are required");

  Outcome (*Run)(const Options &) = nullptr;
  if (Opt.Workload == "compile-variants")
    Run = runCompileVariants;
  else if (Opt.Workload == "serve-tiling")
    Run = runServeTiling;
  else if (Opt.Workload == "synth-cold")
    Run = runSynthCold;
  else
    usage("unknown --workload");

  trace::setEnabled(Opt.Trace);
  int64_t Start = trace::nowNs();
  Outcome Out = Run(Opt);
  double WallSeconds = (trace::nowNs() - Start) / 1e9;
  trace::setEnabled(false);
  Out.EndToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};

  if (Opt.Trace) {
    std::map<std::string, double> SelfMs = trace::layerSelfMs();
    for (const char *Layer : Layers)
      layer(Out, std::string(Layer) + ".self_ms", SelfMs[Layer], "ms");
    double Spans = static_cast<double>(trace::spans().size());
    layer(Out, "trace.spans", Spans, "count");
    // compile-variants and serve-tiling measure the overhead against
    // untraced rounds or time slices of the same run. synth-cold makes one
    // round, which outlasts the run, so there is none to compare with;
    // there it is estimated as spans recorded times the calibrated cost
    // of one span.
    if (!Out.PerLayer.count("trace.overhead_pct"))
      layer(Out, "trace.overhead_pct",
            100.0 * Spans * trace::calibrateSpanCostNs() /
                (WallSeconds * 1e9),
            "%");
    if (!Out.PerLayer.count("trace.ops_per_s"))
      layer(Out, "trace.ops_per_s", Out.EndToEnd["ops_per_s"].Value, "1/s");
    if (!Opt.TracePath.empty() && !trace::writeChromeJson(Opt.TracePath))
      std::fprintf(stderr, "warning: cannot write %s\n",
                   Opt.TracePath.c_str());
  }

  // Every metric is reported on every workload; a layer the workload
  // does not reach reads 0.
  for (const MetricSpec &M : PerLayerMetrics)
    if (Opt.Trace && !Out.PerLayer.count(M.Name))
      Out.PerLayer[M.Name] = {0, M.Unit};
  for (const MetricSpec &M : EndToEndMetrics) {
    auto It = Out.EndToEnd.find(M.Name);
    if (It == Out.EndToEnd.end() || !std::isfinite(It->second.Value) ||
        It->second.Value <= 0) {
      Out.problem(std::string("end-to-end metric ") + M.Name +
                  " was not measured");
      Out.EndToEnd[M.Name] = {0, M.Unit};
    }
  }
  for (auto &[Name, M] : Out.PerLayer)
    if (!std::isfinite(M.Value))
      M.Value = 0;
  if (Out.Attempted == 0) {
    std::fprintf(stderr, "error: no operation was attempted\n");
    return 1;
  }
  printResult(Out, Opt.Trace);
  return 0;
}
