#include "forecast/fast_predictor.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "forecast/window_selection.h"

namespace prorp::forecast {

Result<ActivityPrediction> FastPredictor::PredictNextActivity(
    const history::HistoryStore& history, EpochSeconds now) const {
  const PredictionConfig& cfg = config_;
  PRORP_RETURN_IF_ERROR(cfg.Validate());
  const int64_t num_windows = cfg.NumWindows();
  if (num_windows <= 0) return ActivityPrediction::None();
  const int64_t num_seasons = cfg.NumSeasons();
  const DurationSeconds w = cfg.window_size;
  const DurationSeconds s = cfg.window_slide;
  const DurationSeconds p = cfg.seasonality;
  // Every window of one season lies in [base, base + span).  Validate()
  // guarantees span <= prediction_horizon <= seasonality, so the seasons'
  // spans are disjoint and one ascending scan covers them all.
  const DurationSeconds span = (num_windows - 1) * s + w;
  PRORP_ASSIGN_OR_RETURN(
      std::vector<EpochSeconds> logins,
      history.CollectLogins(now - num_seasons * p, now - p + span));

  // Per-window buckets, not yet statistics: seasons_with_activity is a
  // difference array of the seasons' window coverage, first_login_offset
  // the smallest season offset t whose last containing window is this
  // one, last_login_offset the largest t whose first containing window is
  // this one.
  constexpr DurationSeconds kNoLogin = std::numeric_limits<int64_t>::max();
  std::vector<WindowStats> buckets(static_cast<size_t>(num_windows),
                                   WindowStats{0, kNoLogin, -1});
  size_t next = 0;
  for (int64_t season = num_seasons; season >= 1; --season) {
    const EpochSeconds base = now - season * p;
    while (next < logins.size() && logins[next] < base) ++next;  // gap
    // Windows [run_lo, run_hi] are covered by this season so far.
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    auto close_run = [&] {
      if (run_hi < 0) return;
      ++buckets[static_cast<size_t>(run_lo)].seasons_with_activity;
      if (run_hi + 1 < num_windows) {
        --buckets[static_cast<size_t>(run_hi + 1)].seasons_with_activity;
      }
    };
    for (; next < logins.size() && logins[next] < base + span; ++next) {
      const DurationSeconds t = logins[next] - base;
      // Window i = [i*s, i*s + w) contains t iff lo <= i <= hi.
      const int64_t lo = t < w ? 0 : (t - w) / s + 1;
      const int64_t hi = std::min(num_windows - 1, t / s);
      WindowStats& at_hi = buckets[static_cast<size_t>(hi)];
      at_hi.first_login_offset = std::min(at_hi.first_login_offset, t);
      WindowStats& at_lo = buckets[static_cast<size_t>(lo)];
      at_lo.last_login_offset = std::max(at_lo.last_login_offset, t);
      if (lo > run_hi) {
        close_run();
        run_lo = lo;
      }
      run_hi = hi;  // hi is non-decreasing in t
    }
    close_run();
  }

  // Windows are finalized lazily, in the ascending order the selection
  // visits them: seasons_with_activity is the prefix sum of the difference
  // array; the latest login is the largest t < i*s + w, a prefix-max over
  // the lo buckets; the earliest is the smallest t >= i*s, found in the
  // first non-empty hi bucket at or after i (hi buckets hold ascending,
  // disjoint ranges of t).  Both lie inside window i when it is active.
  int64_t i = -1;
  int64_t active = 0;
  DurationSeconds max_t = -1;
  int64_t first_bucket = 0;
  return SelectValidatedPrediction(
      cfg, now, [&](EpochSeconds) -> WindowStats {
        ++i;
        const WindowStats& b = buckets[static_cast<size_t>(i)];
        active += b.seasons_with_activity;
        max_t = std::max(max_t, b.last_login_offset);
        // Algorithm 4 lines 11-12 for a window no season touched.
        if (active == 0) return WindowStats{0, w, 0};
        first_bucket = std::max(first_bucket, i);
        while (buckets[static_cast<size_t>(first_bucket)].first_login_offset ==
               kNoLogin) {
          ++first_bucket;
        }
        return WindowStats{
            active,
            buckets[static_cast<size_t>(first_bucket)].first_login_offset -
                i * s,
            max_t - i * s};
      });
}

}  // namespace prorp::forecast
