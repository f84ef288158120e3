#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/crash_points.h"
#include "sim/plane_torture.h"

namespace prorp::sim {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A crash-recovery cell: the 120-step workload over a fault-free wire
/// (every ack inline), no node faults, no failure detector, and a 10%
/// transient workflow-failure rate that keeps the retry path busy.
PlaneTortureOptions RecoveryCell(uint64_t seed) {
  PlaneTortureOptions opts;
  opts.seed = seed;
  opts.steps = 120;
  opts.detection_enabled = false;
  opts.fail_probability = 0.10;
  return opts;
}

void ExpectInvariants(const PlaneTortureResult& r,
                      const std::string& label) {
  EXPECT_EQ(r.lost_reactive, 0u) << label << ": accepted reactive login lost";
  EXPECT_EQ(r.duplicate_resumes, 0u) << label << ": double resume";
  EXPECT_TRUE(r.accounting_ok) << label << ": accounting did not reconcile";
  EXPECT_FALSE(r.breaker_recovered_closed_early)
      << label << ": open breaker recovered closed";
}

TEST(RecoveryTortureTest, CleanRunHasNoRecoveries) {
  PlaneTortureOptions opts = RecoveryCell(1);
  opts.dir = FreshDir("rt_clean");
  auto result = RunPlaneTorture(opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->crash_fired);
  EXPECT_EQ(result->recoveries, 0);
  EXPECT_GT(result->accepted_reactive, 0u);
  EXPECT_GT(result->total_resumed, 0u);
  ExpectInvariants(*result, "clean");
}

TEST(RecoveryTortureTest, CountingPassObservesEveryControlPlanePoint) {
  PlaneTortureOptions opts = RecoveryCell(2);
  opts.dir = FreshDir("rt_observe");
  opts.storm = true;
  auto hits = ObservePlaneCrashPoints(opts);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  for (std::string_view point : faults::ControlPlaneCrashPoints()) {
    EXPECT_GT((*hits)[std::string(point)], 0u) << point;
  }
}

/// nth choices covering the first, a middle, and the last occurrence.
std::vector<uint64_t> NthChoices(uint64_t hits) {
  std::vector<uint64_t> nths{1};
  if (hits >= 3) nths.push_back((hits + 1) / 2);
  if (hits >= 2) nths.push_back(hits);
  return nths;
}

/// The crash-torture matrix: every control-plane crash point,
/// >= 8 seeds, under storm and outage pressure.  Each cell kills the
/// control plane at a crash site that the counting pass proved is
/// actually reached, recovers, and asserts the recovery guarantees.
TEST(RecoveryTortureTest, MatrixEveryPointManySeeds) {
  int cells = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PlaneTortureOptions base = RecoveryCell(seed);
    base.storm = (seed % 2 == 0);
    base.outage = (seed % 4 < 2);
    base.checkpoint_every = (seed % 3 == 0) ? 32 : 64;
    base.dir = FreshDir("rt_count_" + std::to_string(seed));
    auto hits = ObservePlaneCrashPoints(base);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    for (std::string_view point : faults::ControlPlaneCrashPoints()) {
      uint64_t observed = (*hits)[std::string(point)];
      ASSERT_GT(observed, 0u) << "seed " << seed << " never reached "
                              << point;
      for (uint64_t nth : NthChoices(observed)) {
        PlaneTortureOptions opts = base;
        opts.crash_point = std::string(point);
        opts.crash_nth = nth;
        // For the pre-sync point, odd seeds tear the frame (payload
        // selects a non-empty prefix), even seeds let it survive whole.
        if (point == faults::kCpJournalPreSync && seed % 2 == 1) {
          opts.crash_payload = 1 + seed;
        }
        std::string label = std::string(point) + "/seed" +
                            std::to_string(seed) + "/nth" +
                            std::to_string(nth);
        opts.dir = FreshDir("rt_" + std::to_string(seed) + "_" +
                            std::to_string(nth) + "_" +
                            std::string(point));
        auto result = RunPlaneTorture(opts);
        ASSERT_TRUE(result.ok()) << label << ": "
                                 << result.status().ToString();
        EXPECT_TRUE(result->crash_fired) << label;
        EXPECT_GE(result->recoveries, 1) << label;
        ExpectInvariants(*result, label);
        ++cells;
      }
    }
  }
  // 8 seeds x 4 points x up to 3 nth choices.
  EXPECT_GE(cells, 32);
}

/// Journal I/O fault soak: every incarnation runs under a probabilistic
/// WAL append/sync fault plan (alternating plain I/O errors and ENOSPC),
/// so the run crashes and recovers many times at arbitrary transitions.
TEST(RecoveryTortureTest, JournalFaultSoakSurvivesRepeatedCrashes) {
  for (uint64_t seed : {3u, 11u, 27u}) {
    PlaneTortureOptions opts = RecoveryCell(seed);
    opts.dir = FreshDir("rt_soak_" + std::to_string(seed));
    opts.storm = true;
    opts.outage = (seed % 2 == 1);
    opts.journal_fault_probability = 0.002;
    auto result = RunPlaneTorture(opts);
    ASSERT_TRUE(result.ok())
        << "seed " << seed << ": " << result.status().ToString();
    EXPECT_GE(result->recoveries, 1) << "seed " << seed;
    ExpectInvariants(*result, "soak/seed" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace prorp::sim
