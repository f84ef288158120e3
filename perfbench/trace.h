#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder of the traced run.
//
// A span has a name, a start, an end, the span that caused it (parent) and
// a trace id shared by every span of one request (one login, one replayed
// database).  The recorder is single-threaded, like every layer it times.
// Self time — a span's duration minus the time its children cover — is
// folded into per-name aggregates the moment a span ends, so aggregates
// cover every span however long the run; the first `max_kept` spans are
// also kept verbatim and written out when the benchmark ends.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  uint32_t name = 0;      // index into the tracer's name table
  uint32_t trace = 0;     // request id shared by the spans of one request
  int64_t parent = -1;    // sequence number of the parent span, -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SpanAggregate {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;

  double self_ns_per_call() const {
    return count == 0 ? 0 : static_cast<double>(self_ns) / count;
  }
  double total_ns_per_call() const {
    return count == 0 ? 0 : static_cast<double>(total_ns) / count;
  }
};

class Tracer {
 public:
  explicit Tracer(size_t max_kept = 200'000) : max_kept_(max_kept) {}

  /// Registers (or finds) a span name; returns its id.
  uint32_t Name(const std::string& name);

  /// Opens a span with the given clock reading; returns its sequence no.
  int64_t Begin(uint32_t name, uint32_t trace, int64_t now_ns);
  /// Closes the innermost open span.
  void End(int64_t now_ns);

  const std::vector<Span>& kept() const { return kept_; }
  const SpanAggregate& aggregate(uint32_t name) const { return agg_[name]; }
  uint64_t spans_recorded() const { return seq_; }
  size_t open_spans() const { return stack_.size(); }

  /// Writes the kept spans as CSV (seq,trace,parent,name,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  struct Open {
    int64_t seq = 0;
    uint32_t name = 0;
    uint32_t trace = 0;
    int64_t parent = -1;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
  };

  size_t max_kept_;
  std::vector<std::string> names_;
  std::vector<SpanAggregate> agg_;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  int64_t seq_ = 0;
};

/// Self time of every span in a closed span set (indexed by sequence
/// number = position), computed offline from the intervals: the span's
/// duration minus the union of its direct children's intervals clipped to
/// it.  The reference the online aggregates are tested against.
std::vector<int64_t> ComputeSelfTimes(const std::vector<Span>& spans);

/// RAII span over the clock; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t name, uint32_t trace)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, trace, NowNs());
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Measured cost of one Begin/End pair on the clock, in ns.
double MeasureSpanCostNs(int iterations = 1'000'000);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
