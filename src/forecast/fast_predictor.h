#ifndef PRORP_FORECAST_FAST_PREDICTOR_H_
#define PRORP_FORECAST_FAST_PREDICTOR_H_

#include <string>

#include "forecast/predictor.h"

namespace prorp::forecast {

/// Vectorized Algorithm 4: algebraically identical to
/// SlidingWindowPredictor but restructured for fleet-scale simulation.
/// Instead of one range query per (window, season) pair — p/s x h queries
/// per prediction — it performs one bulk login scan over all previous
/// seasons and maps each login to the run of windows that contain it,
/// building every window's statistics with a difference array, a
/// suffix-min and a prefix-max:
///
///   O(logins in h + p/s)
///
/// versus the faithful p/s x h/season x O(log m).  Property and
/// boundary tests assert both produce bit-identical predictions; the
/// ablation bench quantifies the speedup.  Holds no mutable state, so one
/// instance may serve many threads.
class FastPredictor : public Predictor {
 public:
  explicit FastPredictor(PredictionConfig config) : config_(config) {}

  Result<ActivityPrediction> PredictNextActivity(
      const history::HistoryStore& history,
      EpochSeconds now) const override;

  std::string name() const override { return "fast_sliding_window"; }

  const PredictionConfig& config() const { return config_; }

 private:
  PredictionConfig config_;
};

}  // namespace prorp::forecast

#endif  // PRORP_FORECAST_FAST_PREDICTOR_H_
