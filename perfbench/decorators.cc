#include "decorators.h"

namespace perfbench {

using prorp::EpochSeconds;
using prorp::Result;
using prorp::Status;

SpanNames::SpanNames(Tracer* t)
    : history_insert(t->Name("history.insert")),
      history_delete(t->Name("history.delete_old")),
      history_minmax(t->Name("history.login_min_max")),
      history_collect(t->Name("history.collect_logins")),
      history_read(t->Name("history.read")),
      forecast_predict(t->Name("forecast.predict")),
      policy_call(t->Name("policy.call")),
      metadata_upsert(t->Name("metadata.upsert")),
      metadata_select(t->Name("metadata.select")),
      management_iteration(t->Name("management.run_once")),
      management_enqueue(t->Name("management.enqueue")),
      management_pump(t->Name("management.pump")),
      prewarm_callback(t->Name("management.prewarm_callback")),
      net_dispatch(t->Name("net.dispatch")),
      node_execute(t->Name("node.execute")),
      workload_next(t->Name("workload.next")),
      login(t->Name("login")) {}

Status TimedHistoryStore::InsertHistory(EpochSeconds time, int event_type) {
  ScopedSpan s(tracer_, names_->history_insert, trace_);
  ++counts_->ops;
  return inner_->InsertHistory(time, event_type);
}

Result<bool> TimedHistoryStore::DeleteOldHistory(prorp::DurationSeconds h,
                                                 EpochSeconds now) {
  ScopedSpan s(tracer_, names_->history_delete, trace_);
  ++counts_->ops;
  return inner_->DeleteOldHistory(h, now);
}

Result<prorp::history::LoginRangeAgg> TimedHistoryStore::LoginMinMax(
    EpochSeconds lo, EpochSeconds hi) const {
  ScopedSpan s(tracer_, names_->history_minmax, trace_);
  ++counts_->ops;
  return inner_->LoginMinMax(lo, hi);
}

Result<std::vector<EpochSeconds>> TimedHistoryStore::CollectLogins(
    EpochSeconds lo, EpochSeconds hi) const {
  ScopedSpan s(tracer_, names_->history_collect, trace_);
  ++counts_->ops;
  Result<std::vector<EpochSeconds>> r = inner_->CollectLogins(lo, hi);
  if (r.ok()) counts_->logins_read += r->size();
  return r;
}

Result<std::vector<prorp::history::HistoryTuple>> TimedHistoryStore::ReadAll()
    const {
  ScopedSpan s(tracer_, names_->history_read, trace_);
  ++counts_->ops;
  return inner_->ReadAll();
}

Result<EpochSeconds> TimedHistoryStore::MinTimestamp() const {
  ScopedSpan s(tracer_, names_->history_read, trace_);
  ++counts_->ops;
  return inner_->MinTimestamp();
}

Result<prorp::forecast::ActivityPrediction>
TimedPredictor::PredictNextActivity(const prorp::history::HistoryStore& history,
                                    EpochSeconds now) const {
  ScopedSpan s(tracer_, names_->forecast_predict, 0);
  Result<prorp::forecast::ActivityPrediction> r =
      inner_->PredictNextActivity(history, now);
  ++counts_->predictions;
  if (r.ok() && r->HasPrediction()) ++counts_->with_window;
  return r;
}

class TimedCursor final : public prorp::workload::SessionCursor {
 public:
  TimedCursor(std::unique_ptr<prorp::workload::SessionCursor> inner,
              const TimedTraceSource* source, uint32_t db)
      : inner_(std::move(inner)), source_(source), db_(db) {}

  bool Next(prorp::workload::Session* out) override {
    const TimedTraceSource& src = *source_;
    int64_t now = NowNs();
    if (pulled_) src.AddGap(now - src.last_pull_ns_);
    pulled_ = true;
    src.last_pull_ns_ = now;
    bool more;
    if (src.tracer_ != nullptr) {
      src.tracer_->Begin(src.names_->workload_next, db_, now);
      more = inner_->Next(out);
      src.tracer_->End(NowNs());
    } else {
      more = inner_->Next(out);
    }
    if (more) ++src.sessions_;
    return more;
  }

 private:
  std::unique_ptr<prorp::workload::SessionCursor> inner_;
  const TimedTraceSource* source_;
  uint32_t db_;
  bool pulled_ = false;
};

void TimedTraceSource::AddGap(int64_t gap_ns) const {
  window_sum_ns_ += gap_ns;
  if (++window_pulls_ < kWindow) return;
  window_means_ns_.push_back(static_cast<double>(window_sum_ns_) / kWindow);
  window_sum_ns_ = 0;
  window_pulls_ = 0;
}

std::unique_ptr<prorp::workload::SessionCursor> TimedTraceSource::Open(
    uint32_t db_id) const {
  return std::make_unique<TimedCursor>(inner_->Open(db_id), this, db_id);
}

}  // namespace perfbench
