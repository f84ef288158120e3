#ifndef PRORP_FORECAST_WINDOW_SELECTION_H_
#define PRORP_FORECAST_WINDOW_SELECTION_H_

#include <type_traits>

#include "common/config.h"
#include "common/result.h"
#include "forecast/prediction.h"

namespace prorp::forecast {

/// Per-window statistics accumulated over the previous seasons (Algorithm
/// 4's inner loop): how many seasons had a login inside the window, and
/// the extreme login offsets relative to the window start.
struct WindowStats {
  int64_t seasons_with_activity = 0;
  /// Earliest first-login offset within the window across seasons
  /// (@firstLoginPerWin; initialized to w per Algorithm 4 line 11).
  DurationSeconds first_login_offset = 0;
  /// Latest last-login offset (@lastLoginPerWin).
  DurationSeconds last_login_offset = 0;
};

/// SelectPrediction for a config the caller has already validated.
/// `stats_fn(win_start)` returns either a WindowStats or a
/// Result<WindowStats>; an error Result aborts the scan.  It is called
/// once per window, in ascending win_start order from `now`, until the
/// selection is final.
template <typename StatsFn>
Result<ActivityPrediction> SelectValidatedPrediction(
    const PredictionConfig& config, EpochSeconds now, StatsFn&& stats_fn) {
  const int64_t num_seasons = config.NumSeasons();
  const EpochSeconds pred_end = now + config.prediction_horizon;

  ActivityPrediction result;
  double prev_prob = 0.0;
  // Outer loop, Algorithm 4 line 9.
  for (EpochSeconds win_start = now;
       win_start + config.window_size <= pred_end;
       win_start += config.window_slide) {
    WindowStats stats;
    if constexpr (std::is_convertible_v<
                      std::invoke_result_t<StatsFn&, EpochSeconds>,
                      WindowStats>) {
      stats = stats_fn(win_start);
    } else {
      PRORP_ASSIGN_OR_RETURN(stats, stats_fn(win_start));
    }
    double prob = static_cast<double>(stats.seasons_with_activity) /
                  static_cast<double>(num_seasons);
    // Selection, lines 37-46: take the window if it clears the confidence
    // threshold and its probability still improves on the previous
    // candidate.  (seasons_with_activity > 0 guards the degenerate c = 0
    // case, where the printed code would emit an empty window.)
    if (config.confidence_threshold <= prob &&
        stats.seasons_with_activity > 0 &&
        (prev_prob < prob || prev_prob == 0.0)) {
      result.start = win_start + stats.first_login_offset;
      result.end = win_start + stats.last_login_offset;
      result.confidence = prob;
      prev_prob = prob;
      continue;
    }
    if (config.literal_break) {
      // The printed ELSE BREAK: abort at the first non-qualifying window.
      break;
    }
    if (prev_prob > 0.0) {
      // Corrected reading: a candidate exists and confidence stopped
      // increasing — the earliest-start locally-maximal window is final.
      break;
    }
    // No candidate yet: keep sliding past sub-threshold windows.
  }
  return result;
}

/// The outer loop and candidate selection of Algorithm 4 (lines 9, 36-47),
/// shared by the faithful and the vectorized predictor: validates the
/// config, slides the window across [now, now + p], computes the activity
/// probability per window via `stats_fn`, and returns the earliest-start
/// window whose confidence clears the threshold and is locally maximal.
///
/// When config.literal_break is set, reproduces the printed pseudo-code's
/// ELSE BREAK, which aborts the scan at the first sub-threshold window
/// (see DESIGN.md section 3 for why that is treated as a transcription
/// artifact).
template <typename StatsFn>
Result<ActivityPrediction> SelectPrediction(const PredictionConfig& config,
                                            EpochSeconds now,
                                            StatsFn&& stats_fn) {
  PRORP_RETURN_IF_ERROR(config.Validate());
  return SelectValidatedPrediction(config, now, stats_fn);
}

}  // namespace prorp::forecast

#endif  // PRORP_FORECAST_WINDOW_SELECTION_H_
