#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

// Timing decorators over the repository's public interfaces.  Each one
// forwards every call and its result unchanged, records a span around it
// (when a tracer is attached) and counts the work that crossed it.

#include <memory>
#include <string>
#include <vector>

#include "forecast/predictor.h"
#include "history/history_store.h"
#include "trace.h"
#include "workload/trace_source.h"

namespace perfbench {

/// Span ids of the layer boundaries the decorators and workloads record.
struct SpanNames {
  explicit SpanNames(Tracer* t);
  uint32_t history_insert, history_delete, history_minmax, history_collect,
      history_read;
  uint32_t forecast_predict;
  uint32_t policy_call;
  uint32_t metadata_upsert, metadata_select;
  uint32_t management_iteration, management_enqueue, management_pump;
  uint32_t prewarm_callback;
  uint32_t net_dispatch, node_execute;
  uint32_t workload_next;
  uint32_t login;
};

class TimedHistoryStore final : public prorp::history::HistoryStore {
 public:
  struct Counts {
    uint64_t ops = 0;
    uint64_t logins_read = 0;  // timestamps returned by CollectLogins
  };

  /// Borrows `inner`, `tracer` (may be null) and `names`.
  TimedHistoryStore(prorp::history::HistoryStore* inner, Tracer* tracer,
                    const SpanNames* names, Counts* counts, uint32_t trace)
      : inner_(inner),
        tracer_(tracer),
        names_(names),
        counts_(counts),
        trace_(trace) {}

  prorp::Status InsertHistory(prorp::EpochSeconds time,
                              int event_type) override;
  prorp::Result<bool> DeleteOldHistory(prorp::DurationSeconds h,
                                       prorp::EpochSeconds now) override;
  prorp::Result<prorp::history::LoginRangeAgg> LoginMinMax(
      prorp::EpochSeconds lo, prorp::EpochSeconds hi) const override;
  prorp::Result<std::vector<prorp::EpochSeconds>> CollectLogins(
      prorp::EpochSeconds lo, prorp::EpochSeconds hi) const override;
  prorp::Result<std::vector<prorp::history::HistoryTuple>> ReadAll()
      const override;
  prorp::Result<prorp::EpochSeconds> MinTimestamp() const override;
  uint64_t NumTuples() const override { return inner_->NumTuples(); }

 private:
  prorp::history::HistoryStore* inner_;
  Tracer* tracer_;
  const SpanNames* names_;
  Counts* counts_;
  uint32_t trace_;
};

class TimedPredictor final : public prorp::forecast::Predictor {
 public:
  struct Counts {
    uint64_t predictions = 0;
    uint64_t with_window = 0;  // predictions that returned a window
  };

  TimedPredictor(const prorp::forecast::Predictor* inner, Tracer* tracer,
                 const SpanNames* names, Counts* counts)
      : inner_(inner), tracer_(tracer), names_(names), counts_(counts) {}

  prorp::Result<prorp::forecast::ActivityPrediction> PredictNextActivity(
      const prorp::history::HistoryStore& history,
      prorp::EpochSeconds now) const override;
  std::string name() const override { return inner_->name(); }

 private:
  const prorp::forecast::Predictor* inner_;
  Tracer* tracer_;
  const SpanNames* names_;
  Counts* counts_;
};

/// Wraps the trace source handed to RunFleetSimulation.  Every Next() on a
/// cursor is counted; each call after a cursor's first (the first ones are
/// the simulator's set-up pass) adds the wall time since the previous
/// Next() on any cursor — the simulator's processing time per customer
/// session — to a window of kWindow pulls, and each full window keeps its
/// mean.  With a tracer attached each Next() is also a span.
class TimedTraceSource final : public prorp::workload::TraceSource {
 public:
  /// Consecutive session pulls averaged into one per-login cost sample:
  /// smooths over the cheap and expensive sessions that alternate pull by
  /// pull, and keeps the stored samples 100x fewer than the pulls.
  static constexpr uint32_t kWindow = 100;

  TimedTraceSource(const prorp::workload::TraceSource* inner, Tracer* tracer,
                   const SpanNames* names)
      : inner_(inner), tracer_(tracer), names_(names) {}

  size_t num_dbs() const override { return inner_->num_dbs(); }
  std::unique_ptr<prorp::workload::SessionCursor> Open(
      uint32_t db_id) const override;

  uint64_t sessions() const { return sessions_; }
  /// Mean wall nanoseconds per in-loop session pull, one per full window.
  const std::vector<double>& window_means_ns() const {
    return window_means_ns_;
  }

 private:
  friend class TimedCursor;
  void AddGap(int64_t gap_ns) const;

  const prorp::workload::TraceSource* inner_;
  Tracer* tracer_;
  const SpanNames* names_;
  mutable uint64_t sessions_ = 0;
  mutable int64_t last_pull_ns_ = 0;
  mutable int64_t window_sum_ns_ = 0;
  mutable uint32_t window_pulls_ = 0;
  mutable std::vector<double> window_means_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
