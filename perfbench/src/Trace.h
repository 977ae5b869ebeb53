//===- Trace.h - In-memory span recorder for the benchmark -------*- C++ -*-===//
//
// Part of the selgen benchmark harness.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans around the harness's calls into each selgen layer. A span has
/// a name ("<layer>.<call>"), start and end on the steady clock, the
/// span that was open on the same thread when it began (its parent),
/// and a request id shared by every span of one operation. Spans are
/// kept in memory and written as Chrome trace-event JSON when the run
/// ends. With tracing off a ScopedSpan costs one relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_PERFBENCH_TRACE_H
#define SELGEN_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = nullptr;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int64_t Id = 0;
  int64_t Parent = -1; ///< -1 for a root span.
  uint64_t RequestId = 0;
  uint32_t Thread = 0;
};

/// Per-name totals derived from the recorded spans.
struct SpanSummary {
  double SelfUs = 0; ///< Durations minus the time child spans cover.
  std::vector<double> DurationsUs;
};

namespace trace {

void setEnabled(bool Enabled);
bool enabled();

/// Nanoseconds on the steady clock.
int64_t nowNs();

/// Spans recorded so far, in completion order.
std::vector<Span> spans();

/// Groups the recorded spans by name.
std::map<std::string, SpanSummary> summarize();

/// Self time per layer: the prefix of each span name up to its first
/// '.', summed over that layer's spans, in milliseconds.
std::map<std::string, double> layerSelfMs();

/// Writes the spans as Chrome trace-event JSON ("X" events; args carry
/// the span id, parent and request id). Returns false on I/O failure.
bool writeChromeJson(const std::string &Path);

/// Measured cost of recording one span (open + close), in nanoseconds.
/// The calibration spans are discarded; the recorded ones are untouched.
double calibrateSpanCostNs();

} // namespace trace

/// Records one span for its lifetime when tracing is on.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, uint64_t RequestId = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  const char *Name;
  uint64_t RequestId;
  int64_t StartNs = 0;
  int64_t Id = -1; ///< -1 when tracing was off at construction.
  int64_t SavedParent = -1;
};

} // namespace perfbench

#endif // SELGEN_PERFBENCH_TRACE_H
