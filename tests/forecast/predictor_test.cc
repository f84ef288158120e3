#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "forecast/baseline_predictors.h"
#include "forecast/fast_predictor.h"
#include "forecast/sliding_window_predictor.h"
#include "history/mem_history_store.h"
#include "history/sql_history_store.h"

namespace prorp::forecast {
namespace {

using history::kEventLogin;
using history::kEventLogout;
using history::MemHistoryStore;

// A Monday 00:00 UTC anchor well in the future of epoch 0 so that 28 days
// of history fit comfortably.
constexpr EpochSeconds kAnchor = Days(1000) + Days(4);  // day 1004: Monday

/// Fills `store` with one activity session per day at the given offsets
/// for `days` days ending the day before `now`'s day.
void AddDailySessions(MemHistoryStore& store, EpochSeconds now, int days,
                      DurationSeconds login_offset,
                      DurationSeconds logout_offset) {
  EpochSeconds today = StartOfDay(now);
  for (int d = 1; d <= days; ++d) {
    EpochSeconds day = today - Days(d);
    ASSERT_TRUE(store.InsertHistory(day + login_offset, kEventLogin).ok());
    ASSERT_TRUE(store.InsertHistory(day + logout_offset, kEventLogout).ok());
  }
}

PredictionConfig DefaultConfig() { return PredictionConfig{}; }

TEST(SlidingWindowPredictorTest, DetectsPerfectDailyPattern) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor;  // midnight
  AddDailySessions(store, now, 28, Hours(9), Hours(17));
  SlidingWindowPredictor predictor(DefaultConfig());
  auto pred = predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  ASSERT_TRUE(pred->HasPrediction());
  // The 9:00 login must fall inside the predicted interval; prediction
  // starts at (or just before) the historical login hour.
  EpochSeconds expected_login = now + Hours(9);
  EXPECT_LE(pred->start, expected_login);
  EXPECT_GE(pred->end, expected_login);
  EXPECT_GT(pred->confidence, 0.9);
}

TEST(SlidingWindowPredictorTest, NoHistoryNoPrediction) {
  MemHistoryStore store;
  SlidingWindowPredictor predictor(DefaultConfig());
  auto pred = predictor.PredictNextActivity(store, kAnchor);
  ASSERT_TRUE(pred.ok());
  EXPECT_FALSE(pred->HasPrediction());
  EXPECT_EQ(pred->start, 0);  // Algorithm 1 checks start = 0
}

TEST(SlidingWindowPredictorTest, SparsePatternBelowConfidenceThreshold) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor;
  // Activity on only 2 of 28 days => probability 2/28 ~ 0.07 < 0.1.
  EpochSeconds today = StartOfDay(now);
  for (int d : {3, 17}) {
    ASSERT_TRUE(
        store.InsertHistory(today - Days(d) + Hours(9), kEventLogin).ok());
  }
  SlidingWindowPredictor predictor(DefaultConfig());
  auto pred = predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(pred.ok());
  EXPECT_FALSE(pred->HasPrediction());
  // Lowering the threshold makes the same pattern predictable.
  PredictionConfig loose = DefaultConfig();
  loose.confidence_threshold = 0.05;
  SlidingWindowPredictor loose_predictor(loose);
  auto pred2 = loose_predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(pred2.ok());
  EXPECT_TRUE(pred2->HasPrediction());
}

TEST(SlidingWindowPredictorTest, LiteralBreakMissesLaterActivity) {
  // With activity at 9:00 and "now" at midnight, the first window
  // [00:00, 07:00] has zero confidence; the printed ELSE BREAK aborts
  // immediately and predicts nothing, while the corrected scan finds it.
  MemHistoryStore store;
  EpochSeconds now = kAnchor;
  AddDailySessions(store, now, 28, Hours(9), Hours(10));
  PredictionConfig literal = DefaultConfig();
  literal.literal_break = true;
  SlidingWindowPredictor literal_predictor(literal);
  auto p1 = literal_predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(p1.ok());
  EXPECT_FALSE(p1->HasPrediction());

  SlidingWindowPredictor corrected(DefaultConfig());
  auto p2 = corrected.PredictNextActivity(store, now);
  ASSERT_TRUE(p2.ok());
  EXPECT_TRUE(p2->HasPrediction());
}

TEST(SlidingWindowPredictorTest, WeeklySeasonalityFindsWeeklyPattern) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor;  // Monday 00:00
  // Logins only on Mondays at 8:00 for 8 weeks.
  for (int wk = 1; wk <= 8; ++wk) {
    ASSERT_TRUE(store
                    .InsertHistory(StartOfDay(now) - Weeks(wk) + Hours(8),
                                   kEventLogin)
                    .ok());
  }
  // Daily seasonality sees activity on only 8 of 56 days spread across
  // weekdays => the Monday pattern is invisible at c = 0.5.
  PredictionConfig daily = DefaultConfig();
  daily.history_length = Weeks(8);
  daily.confidence_threshold = 0.5;
  SlidingWindowPredictor daily_pred(daily);
  auto p_daily = daily_pred.PredictNextActivity(store, now);
  ASSERT_TRUE(p_daily.ok());
  EXPECT_FALSE(p_daily->HasPrediction());

  // Weekly seasonality looks back Monday-to-Monday: confidence 1.0.
  PredictionConfig weekly = DefaultConfig();
  weekly.history_length = Weeks(8);
  weekly.seasonality = Weeks(1);
  weekly.confidence_threshold = 0.5;
  SlidingWindowPredictor weekly_pred(weekly);
  auto p_weekly = weekly_pred.PredictNextActivity(store, now);
  ASSERT_TRUE(p_weekly.ok());
  ASSERT_TRUE(p_weekly->HasPrediction());
  EXPECT_LE(p_weekly->start, now + Hours(8));
  EXPECT_GE(p_weekly->end, now + Hours(8));
  EXPECT_DOUBLE_EQ(p_weekly->confidence, 1.0);
}

TEST(SlidingWindowPredictorTest, PredictionNeverStartsInThePast) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor + Hours(11);  // mid-day
  AddDailySessions(store, now, 28, Hours(9), Hours(17));
  SlidingWindowPredictor predictor(DefaultConfig());
  auto pred = predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(pred.ok());
  if (pred->HasPrediction()) {
    EXPECT_GE(pred->start, now);
    EXPECT_GE(pred->end, pred->start);
  }
}

// Figure 5 of the paper: 5 days of history, a window with confidence 4/5
// and a window with confidence 5/5; the prediction takes the
// higher-confidence window's extremes.
TEST(SlidingWindowPredictorTest, Figure5Example) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor;
  EpochSeconds today = StartOfDay(now);
  // Days 1-5 (1 = yesterday ... 5): logins around 10:00; day 3 has two
  // separate logins inside the window (as in the figure); day 2 has none
  // early but one at 11:15 (so narrow early windows have confidence 4/5).
  struct DayLogins {
    int day;
    std::vector<DurationSeconds> logins;
  };
  std::vector<DayLogins> days = {
      {1, {Hours(10)}},
      {2, {Hours(11) + Minutes(15)}},
      {3, {Hours(9) + Minutes(30), Hours(12)}},
      {4, {Hours(10) + Minutes(15)}},
      {5, {Hours(10) + Minutes(45)}},
  };
  for (const auto& d : days) {
    for (DurationSeconds offset : d.logins) {
      ASSERT_TRUE(
          store.InsertHistory(today - Days(d.day) + offset, kEventLogin)
              .ok());
    }
  }
  PredictionConfig cfg;
  cfg.history_length = Days(5);
  cfg.window_size = Hours(3);
  cfg.window_slide = Minutes(30);
  cfg.confidence_threshold = 0.8;
  SlidingWindowPredictor predictor(cfg);
  auto pred = predictor.PredictNextActivity(store, now);
  ASSERT_TRUE(pred.ok());
  ASSERT_TRUE(pred->HasPrediction());
  // The selected window covers all five days' logins => confidence 1.
  EXPECT_DOUBLE_EQ(pred->confidence, 1.0);
  // Predicted interval spans the earliest and latest observed login
  // offsets of the winning window.
  EXPECT_LE(pred->start, now + Hours(9) + Minutes(30) + Hours(1));
  EXPECT_GE(pred->end, now + Hours(11) + Minutes(15));
}

TEST(SlidingWindowPredictorTest, BoundaryLoginNotDoubleCounted) {
  // Regression for the inclusive season-window bound: a login exactly at
  // prev_start + window_size used to be counted in two adjacent sliding
  // windows, inflating seasons_with_activity past the confidence
  // threshold.
  MemHistoryStore store;
  EpochSeconds now = kAnchor;
  EpochSeconds today = StartOfDay(now);
  // Three logins exactly window_size (2 h) apart: no half-open 2 h window
  // can contain more than one of them.
  ASSERT_TRUE(
      store.InsertHistory(today - Days(1) + Hours(8), kEventLogin).ok());
  ASSERT_TRUE(
      store.InsertHistory(today - Days(2) + Hours(10), kEventLogin).ok());
  ASSERT_TRUE(
      store.InsertHistory(today - Days(3) + Hours(12), kEventLogin).ok());
  PredictionConfig cfg;
  cfg.history_length = Days(5);
  cfg.window_size = Hours(2);
  cfg.window_slide = Minutes(30);
  cfg.confidence_threshold = 0.4;  // 2 of 5 seasons
  SlidingWindowPredictor faithful(cfg);
  FastPredictor fast(cfg);
  auto a = faithful.PredictNextActivity(store, now);
  auto b = fast.PredictNextActivity(store, now);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // With the inclusive bound, window [8:00, 10:00] counted both the 8:00
  // and the boundary 10:00 login (2 of 5 seasons) and emitted a spurious
  // prediction; with half-open windows every window sees at most one
  // active season, below the threshold.
  EXPECT_FALSE(a->HasPrediction());
  EXPECT_EQ(*a, *b);
}

TEST(FastPredictorTest, MatchesFaithfulOnDailyPattern) {
  MemHistoryStore store;
  EpochSeconds now = kAnchor + Hours(3);
  AddDailySessions(store, now, 28, Hours(8) + Minutes(17),
                   Hours(16) + Minutes(42));
  SlidingWindowPredictor slow(DefaultConfig());
  FastPredictor fast(DefaultConfig());
  auto a = slow.PredictNextActivity(store, now);
  auto b = fast.PredictNextActivity(store, now);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_TRUE(a->HasPrediction());
}

// Property sweep: on random histories and random configurations the
// faithful and vectorized predictors are bit-identical.
class PredictorEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PredictorEquivalenceTest, FastEqualsFaithful) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    MemHistoryStore store;
    EpochSeconds now =
        kAnchor + rng.NextInt(0, Days(1) - 1);
    // Random history: sessions with random day coverage and jitter.
    int days = static_cast<int>(rng.NextInt(0, 35));
    for (int d = 1; d <= days; ++d) {
      if (!rng.NextBool(0.7)) continue;
      int sessions = static_cast<int>(rng.NextInt(1, 3));
      for (int s = 0; s < sessions; ++s) {
        EpochSeconds login = StartOfDay(now) - Days(d) +
                             rng.NextInt(0, Days(1) - Hours(1));
        ASSERT_TRUE(store.InsertHistory(login, kEventLogin).ok());
        ASSERT_TRUE(
            store.InsertHistory(login + rng.NextInt(60, Hours(3)),
                                kEventLogout)
                .ok());
      }
    }
    PredictionConfig cfg;
    cfg.history_length = Days(rng.NextInt(7, 28));
    cfg.window_size = Hours(rng.NextInt(1, 8));
    cfg.window_slide = Minutes(rng.NextInt(1, 12) * 5);
    cfg.confidence_threshold = rng.NextDouble();
    cfg.literal_break = rng.NextBool(0.3);
    if (rng.NextBool(0.25)) {
      cfg.seasonality = Weeks(1);
      cfg.prediction_horizon = Days(rng.NextInt(1, 7));
      cfg.history_length = Weeks(rng.NextInt(1, 4));
    }
    SlidingWindowPredictor slow(cfg);
    FastPredictor fast(cfg);
    auto a = slow.PredictNextActivity(store, now);
    auto b = fast.PredictNextActivity(store, now);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(*a, *b) << "trial " << trial << " cfg "
                      << cfg.window_size << "/" << cfg.window_slide << "/"
                      << cfg.confidence_threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictorEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(PredictorEquivalenceTest, SqlStoreMatchesMemStore) {
  // End-to-end: the faithful predictor over the real SQL store equals the
  // fast predictor over the in-memory store for the same history.
  auto sql_store = history::SqlHistoryStore::Open();
  ASSERT_TRUE(sql_store.ok());
  MemHistoryStore mem_store;
  Rng rng(99);
  EpochSeconds now = kAnchor;
  for (int d = 1; d <= 28; ++d) {
    if (!rng.NextBool(0.8)) continue;
    EpochSeconds login =
        StartOfDay(now) - Days(d) + Hours(9) + rng.NextInt(0, Minutes(40));
    ASSERT_TRUE((*sql_store)->InsertHistory(login, kEventLogin).ok());
    ASSERT_TRUE(mem_store.InsertHistory(login, kEventLogin).ok());
    ASSERT_TRUE(
        (*sql_store)->InsertHistory(login + Hours(8), kEventLogout).ok());
    ASSERT_TRUE(mem_store.InsertHistory(login + Hours(8), kEventLogout).ok());
  }
  SlidingWindowPredictor slow(DefaultConfig());
  FastPredictor fast(DefaultConfig());
  auto a = slow.PredictNextActivity(**sql_store, now);
  auto b = fast.PredictNextActivity(mem_store, now);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_TRUE(a->HasPrediction());
}

/// Forwards to another store and counts the range reads Algorithm 4
/// issues.
class CountingHistoryStore : public history::HistoryStore {
 public:
  explicit CountingHistoryStore(const history::HistoryStore& inner)
      : inner_(inner) {}

  Status InsertHistory(EpochSeconds, int) override {
    return Status::FailedPrecondition("read-only");
  }
  Result<bool> DeleteOldHistory(DurationSeconds, EpochSeconds) override {
    return Status::FailedPrecondition("read-only");
  }
  Result<history::LoginRangeAgg> LoginMinMax(EpochSeconds lo,
                                             EpochSeconds hi) const override {
    ++min_max_calls;
    return inner_.LoginMinMax(lo, hi);
  }
  Result<std::vector<EpochSeconds>> CollectLogins(
      EpochSeconds lo, EpochSeconds hi) const override {
    ++collect_calls;
    return inner_.CollectLogins(lo, hi);
  }
  Result<std::vector<history::HistoryTuple>> ReadAll() const override {
    return inner_.ReadAll();
  }
  Result<EpochSeconds> MinTimestamp() const override {
    return inner_.MinTimestamp();
  }
  uint64_t NumTuples() const override { return inner_.NumTuples(); }

  mutable int collect_calls = 0;
  mutable int min_max_calls = 0;

 private:
  const history::HistoryStore& inner_;
};

/// Configurations whose windows do and do not tile the slide: w a
/// multiple of s, w not a multiple of s, w == s, and weekly seasonality
/// whose one-day horizon leaves a six-day gap between seasons.
std::vector<PredictionConfig> BoundaryConfigs() {
  std::vector<PredictionConfig> out;
  PredictionConfig daily;  // w = 7 h, s = 5 min: w multiple of s
  daily.history_length = Days(6);
  out.push_back(daily);
  PredictionConfig odd;
  odd.history_length = Days(5);
  odd.window_size = Minutes(50);
  odd.window_slide = Minutes(15);
  odd.prediction_horizon = Hours(20);  // span < season: gap too
  out.push_back(odd);
  PredictionConfig tiled;
  tiled.history_length = Days(4);
  tiled.window_size = Hours(2);
  tiled.window_slide = Hours(2);
  out.push_back(tiled);
  PredictionConfig weekly;
  weekly.seasonality = Weeks(1);
  weekly.history_length = Weeks(4);
  weekly.window_size = Hours(3) + Minutes(10);
  weekly.window_slide = Minutes(40);
  out.push_back(weekly);
  PredictionConfig weekly_full;
  weekly_full.seasonality = Weeks(1);
  weekly_full.prediction_horizon = Weeks(1);
  weekly_full.history_length = Weeks(3);
  weekly_full.window_size = Hours(5);
  weekly_full.window_slide = Hours(1) + Minutes(7);
  out.push_back(weekly_full);
  return out;
}

/// Logins placed exactly on the boundaries the vectorized predictor's
/// index arithmetic must get right, in a random subset of the seasons
/// (the others stay empty), plus logouts that must be ignored.
std::vector<history::HistoryTuple> BoundaryHistory(
    const PredictionConfig& cfg, EpochSeconds now, Rng& rng) {
  const int64_t nw = cfg.NumWindows();
  const DurationSeconds s = cfg.window_slide;
  const DurationSeconds w = cfg.window_size;
  const DurationSeconds span = (nw - 1) * s + w;
  const DurationSeconds gap = cfg.seasonality - span;
  std::vector<history::HistoryTuple> logins;
  for (int64_t season = 1; season <= cfg.NumSeasons(); ++season) {
    if (rng.NextBool(0.3)) continue;  // empty season
    const EpochSeconds base = now - season * cfg.seasonality;
    std::vector<DurationSeconds> offsets = {0, span - 1};
    for (int k = 0; k < 3; ++k) {
      int64_t i = rng.NextInt(0, nw - 1);
      offsets.push_back(i * s);
      offsets.push_back(i * s + w - 1);
      offsets.push_back(i * s + w);  // first second past window i
    }
    offsets.push_back((nw - 1) * s + rng.NextInt(0, w - 1));  // last window
    if (gap > 0) {
      offsets.push_back(span);  // first second of the gap
      offsets.push_back(span + rng.NextInt(0, gap - 1));
      offsets.push_back(cfg.seasonality - 1);  // last second of the gap
    }
    for (DurationSeconds t : offsets) {
      if (rng.NextBool(0.6)) logins.push_back({base + t, kEventLogin});
    }
  }
  // Just outside the scanned range on both ends.
  logins.push_back({now - cfg.NumSeasons() * cfg.seasonality - 1,
                    kEventLogin});
  logins.push_back({now - cfg.seasonality + span, kEventLogin});
  std::vector<history::HistoryTuple> tuples = logins;
  for (const history::HistoryTuple& t : logins) {
    if (rng.NextBool(0.5)) {
      tuples.push_back({t.time_snapshot + 1, kEventLogout});
    }
  }
  return tuples;
}

/// Thresholds that select at every reachable confidence level.
double BoundaryThreshold(const PredictionConfig& cfg, Rng& rng) {
  if (rng.NextBool(0.2)) return 0.0;
  return static_cast<double>(rng.NextInt(1, cfg.NumSeasons())) /
         static_cast<double>(cfg.NumSeasons());
}

TEST(PredictorEquivalenceTest, BoundaryLoginsMatchFaithfulOverMemStore) {
  Rng rng(2024);
  for (PredictionConfig cfg : BoundaryConfigs()) {
    ASSERT_TRUE(cfg.Validate().ok());
    for (int trial = 0; trial < 200; ++trial) {
      // A `now` on and off the slide grid.
      EpochSeconds now = kAnchor + (trial % 2 == 0
                                        ? rng.NextInt(0, 6) * cfg.window_slide
                                        : rng.NextInt(0, Days(1) - 1));
      MemHistoryStore store;
      for (const history::HistoryTuple& t : BoundaryHistory(cfg, now, rng)) {
        ASSERT_TRUE(store.InsertHistory(t.time_snapshot, t.event_type).ok());
      }
      cfg.confidence_threshold = BoundaryThreshold(cfg, rng);
      cfg.literal_break = rng.NextBool(0.2);
      SlidingWindowPredictor slow(cfg);
      FastPredictor fast(cfg);
      CountingHistoryStore counted(store);
      auto a = slow.PredictNextActivity(store, now);
      auto b = fast.PredictNextActivity(counted, now);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(*a, *b) << "trial " << trial << " w=" << cfg.window_size
                        << " s=" << cfg.window_slide << " c="
                        << cfg.confidence_threshold << " expected "
                        << a->ToString() << " got " << b->ToString();
      EXPECT_EQ(counted.collect_calls, 1);
      EXPECT_EQ(counted.min_max_calls, 0);
    }
  }
}

TEST(PredictorEquivalenceTest, BoundaryLoginsMatchFaithfulOverSqlStore) {
  Rng rng(7);
  for (PredictionConfig cfg : BoundaryConfigs()) {
    for (int trial = 0; trial < 3; ++trial) {
      EpochSeconds now = kAnchor + rng.NextInt(0, Days(1) - 1);
      auto sql_store = history::SqlHistoryStore::Open();
      ASSERT_TRUE(sql_store.ok());
      for (const history::HistoryTuple& t : BoundaryHistory(cfg, now, rng)) {
        ASSERT_TRUE(
            (*sql_store)->InsertHistory(t.time_snapshot, t.event_type).ok());
      }
      cfg.confidence_threshold = BoundaryThreshold(cfg, rng);
      SlidingWindowPredictor slow(cfg);
      FastPredictor fast(cfg);
      CountingHistoryStore counted(**sql_store);
      auto a = slow.PredictNextActivity(**sql_store, now);
      auto b = fast.PredictNextActivity(counted, now);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(*a, *b) << "trial " << trial << " w=" << cfg.window_size
                        << " s=" << cfg.window_slide;
      EXPECT_EQ(counted.collect_calls, 1);
    }
  }
}

TEST(BaselinePredictorsTest, NeverPredictsNothing) {
  MemHistoryStore store;
  NeverPredictor never;
  auto p = never.PredictNextActivity(store, kAnchor);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->HasPrediction());
}

TEST(BaselinePredictorsTest, FailingIsUnavailable) {
  MemHistoryStore store;
  FailingPredictor failing;
  auto p = failing.PredictNextActivity(store, kAnchor);
  EXPECT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsUnavailable());
}

TEST(BaselinePredictorsTest, FixedDelayIsControllable) {
  MemHistoryStore store;
  FixedDelayPredictor fixed(Hours(2), Hours(1));
  auto p = fixed.PredictNextActivity(store, 1000);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->start, 1000 + Hours(2));
  EXPECT_EQ(p->end, 1000 + Hours(3));
}

TEST(PredictionConfigValidationTest, InvalidConfigSurfacesAsError) {
  MemHistoryStore store;
  PredictionConfig bad;
  bad.window_slide = 0;
  SlidingWindowPredictor p1(bad);
  EXPECT_FALSE(p1.PredictNextActivity(store, kAnchor).ok());
  FastPredictor p2(bad);
  EXPECT_FALSE(p2.PredictNextActivity(store, kAnchor).ok());
}

}  // namespace
}  // namespace prorp::forecast
