// Microbenchmarks of the next-activity prediction (Algorithm 4):
// the faithful SQL stored procedure (p/s x h range queries, the paper's
// production implementation whose latency Figure 10(c) reports) versus
// the vectorized FastPredictor the fleet simulator uses, across history
// sizes.  The *FullHorizon cases put each day's only login at the end of
// the horizon, so the faithful predictor scans nearly every window before
// it selects one.

#include <benchmark/benchmark.h>

#include "forecast/fast_predictor.h"
#include "forecast/sliding_window_predictor.h"
#include "history/mem_history_store.h"
#include "history/sql_history_store.h"

namespace prorp::forecast {
namespace {

constexpr EpochSeconds kNow = Days(1004);

/// Fills 28 days of history, each day's first login at `first_login`
/// past midnight.  The default 06:00 falls in the first 7-h window from
/// kNow (midnight); 23:30 is only in the last ones.
template <typename Store>
void Fill(Store& store, int sessions_per_day,
          DurationSeconds first_login = Hours(6)) {
  for (int d = 1; d <= 28; ++d) {
    EpochSeconds day = kNow - Days(d);
    for (int s = 0; s < sessions_per_day; ++s) {
      EpochSeconds login = day + first_login + s * Minutes(30);
      (void)store.InsertHistory(login, history::kEventLogin);
      (void)store.InsertHistory(login + Minutes(20),
                                history::kEventLogout);
    }
  }
}

void BM_FaithfulSqlPrediction(benchmark::State& state) {
  auto store = history::SqlHistoryStore::Open().value();
  Fill(*store, static_cast<int>(state.range(0)));
  SlidingWindowPredictor predictor(PredictionConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.PredictNextActivity(*store, kNow));
  }
  state.SetLabel(std::to_string(store->NumTuples()) + " tuples");
}
BENCHMARK(BM_FaithfulSqlPrediction)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_FaithfulSqlFullHorizon(benchmark::State& state) {
  auto store = history::SqlHistoryStore::Open().value();
  Fill(*store, 1, Hours(23) + Minutes(30));
  SlidingWindowPredictor predictor(PredictionConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.PredictNextActivity(*store, kNow));
  }
}
BENCHMARK(BM_FaithfulSqlFullHorizon)->Unit(benchmark::kMillisecond);

void BM_FaithfulOverMemStore(benchmark::State& state) {
  history::MemHistoryStore store;
  Fill(store, static_cast<int>(state.range(0)));
  SlidingWindowPredictor predictor(PredictionConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.PredictNextActivity(store, kNow));
  }
}
BENCHMARK(BM_FaithfulOverMemStore)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FastPrediction(benchmark::State& state) {
  history::MemHistoryStore store;
  Fill(store, static_cast<int>(state.range(0)));
  FastPredictor predictor(PredictionConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.PredictNextActivity(store, kNow));
  }
  state.SetLabel(std::to_string(store.NumTuples()) + " tuples");
}
BENCHMARK(BM_FastPrediction)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_FastPredictionFullHorizon(benchmark::State& state) {
  history::MemHistoryStore store;
  Fill(store, 1, Hours(23) + Minutes(30));
  FastPredictor predictor(PredictionConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.PredictNextActivity(store, kNow));
  }
}
BENCHMARK(BM_FastPredictionFullHorizon)->Unit(benchmark::kMicrosecond);

void BM_WeeklySeasonality(benchmark::State& state) {
  history::MemHistoryStore store;
  Fill(store, 4);
  PredictionConfig cfg;
  cfg.seasonality = Weeks(1);
  cfg.prediction_horizon = Days(7);
  FastPredictor predictor(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.PredictNextActivity(store, kNow));
  }
}
BENCHMARK(BM_WeeklySeasonality)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prorp::forecast

BENCHMARK_MAIN();
