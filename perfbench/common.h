#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the repository benchmark: the metric sink every
// workload fills, wall-clock helpers, percentiles, and the process probes
// (peak RSS, heap allocations, /proc/self/io).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact percentile (nearest rank, q in [0, 1]) of an unsorted sample.
/// Copies, so callers may keep the sample in arrival order.
template <typename T>
double Percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

template <typename T>
double Median(const std::vector<T>& v) {
  return Percentile(v, 0.5);
}

/// One reported number.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one benchmark invocation reports: the correctness verdict, the
/// operation counts and the named metrics.  Every output check that fails
/// records a line in `errors`, which makes `correct` false.
struct Report {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed output check when `ok` is false.
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  bool correct() const { return errors.empty(); }
};

/// Peak resident set size of the process, in MiB (VmHWM).
double PeakRssMb();

/// Heap allocations (operator new calls) made by the process so far; 0 in
/// sanitizer builds, which keep the default allocator.
uint64_t AllocationCount();

/// Counters of /proc/self/io: write(2)-family calls and bytes passed to
/// them.  Zero when the file is unavailable.
struct IoCounters {
  uint64_t write_calls = 0;
  uint64_t write_bytes = 0;
};
IoCounters ReadIoCounters();

/// 64-bit FNV-1a step, used to fingerprint generated inputs.
inline uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
