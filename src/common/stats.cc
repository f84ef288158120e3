#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace prorp {
namespace {

template <typename Sample>
BoxPlot BoxPlotOf(const Sample& sample) {
  BoxPlot b;
  b.count = sample.count();
  if (sample.empty()) return b;
  b.min = sample.Min();
  b.q1 = sample.Percentile(0.25);
  b.median = sample.Percentile(0.5);
  b.q3 = sample.Percentile(0.75);
  b.max = sample.Max();
  return b;
}

/// Linear interpolation between the closest ranks of a sorted sample of
/// n > 0 values; value_at(k) is the value of rank k.
template <typename ValueAt>
double InterpolatePercentile(double q, size_t n, ValueAt value_at) {
  double rank = q * static_cast<double>(n - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = static_cast<size_t>(std::ceil(rank));
  double frac = rank - static_cast<double>(lo);
  return value_at(lo) + (value_at(hi) - value_at(lo)) * frac;
}

}  // namespace

std::string BoxPlot::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f (n=%zu)", min, q1,
                median, q3, max, count);
  return buf;
}

void Summary::AddAll(const std::vector<double>& vs) {
  values_.insert(values_.end(), vs.begin(), vs.end());
}

double Summary::Mean() const {
  if (values_.empty()) return 0;
  return Sum() / static_cast<double>(values_.size());
}

double Summary::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Summary::Min() const {
  if (values_.empty()) return 0;
  return *std::min_element(values_.begin(), values_.end());
}

double Summary::Max() const {
  if (values_.empty()) return 0;
  return *std::max_element(values_.begin(), values_.end());
}

double Summary::Percentile(double q) const {
  if (values_.empty()) return 0;
  if (q <= 0) return Min();
  if (q >= 1) return Max();
  std::vector<double> sorted = Sorted();
  return InterpolatePercentile(q, sorted.size(),
                               [&](size_t k) { return sorted[k]; });
}

BoxPlot Summary::ToBoxPlot() const { return BoxPlotOf(*this); }

std::vector<double> Summary::Sorted() const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void IntegerDistribution::Add(int64_t v, uint64_t times) {
  if (times == 0) return;
  counts_[v] += times;
  count_ += times;
  sum_ += v * static_cast<int64_t>(times);
}

double IntegerDistribution::Mean() const {
  if (empty()) return 0;
  return Sum() / static_cast<double>(count_);
}

double IntegerDistribution::Min() const {
  return empty() ? 0 : static_cast<double>(counts_.begin()->first);
}

double IntegerDistribution::Max() const {
  return empty() ? 0 : static_cast<double>(counts_.rbegin()->first);
}

int64_t IntegerDistribution::ValueAtRank(uint64_t k) const {
  for (const auto& [value, n] : counts_) {
    if (k < n) return value;
    k -= n;
  }
  return counts_.rbegin()->first;
}

double IntegerDistribution::Percentile(double q) const {
  if (empty()) return 0;
  if (q <= 0) return Min();
  if (q >= 1) return Max();
  return InterpolatePercentile(q, count_, [&](size_t k) {
    return static_cast<double>(ValueAtRank(k));
  });
}

BoxPlot IntegerDistribution::ToBoxPlot() const { return BoxPlotOf(*this); }

void IntegerDistribution::Merge(const IntegerDistribution& other) {
  for (const auto& [value, n] : other.counts_) Add(value, n);
}

std::vector<CdfPoint> BuildCdf(const Summary& summary, size_t max_points) {
  std::vector<CdfPoint> cdf;
  if (summary.empty() || max_points == 0) return cdf;
  std::vector<double> sorted = summary.Sorted();
  size_t n = sorted.size();
  size_t points = std::min(max_points, n);
  cdf.reserve(points);
  for (size_t i = 1; i <= points; ++i) {
    // Index of the i-th of `points` evenly spaced quantiles; the last point
    // is always the sample maximum.
    size_t idx = (i * n) / points - 1;
    cdf.push_back({sorted[idx],
                   static_cast<double>(idx + 1) / static_cast<double>(n)});
  }
  return cdf;
}

std::string FormatCdf(const std::vector<CdfPoint>& cdf,
                      const std::string& value_label) {
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%20s  %8s\n", value_label.c_str(), "CDF");
  out += buf;
  for (const CdfPoint& p : cdf) {
    std::snprintf(buf, sizeof(buf), "%20.2f  %7.1f%%\n", p.value,
                  p.cumulative_fraction * 100.0);
    out += buf;
  }
  return out;
}

}  // namespace prorp
