// The region chaos gauntlet: seeded random overlay combinations on the
// plane torture harness.  Each seed draws a random subset of wire faults,
// one node fault of a random kind, a login storm, a resume-path outage,
// the failure detector on or off, and a control-plane crash at a random
// step — and every seed must hold every invariant.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sim/plane_torture.h"

namespace prorp::sim {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

enum Overlay {
  kWire,
  kCrash,
  kPartition,
  kSlow,
  kStorm,
  kOutage,
  kPlaneCrash,
  kPassive,
  kNumOverlays,
};

constexpr const char* kOverlayNames[kNumOverlays] = {
    "wire", "crash", "partition", "slow", "storm", "outage", "plane_crash",
    "passive"};

/// Draws one gauntlet cell from `seed`; `drawn` marks its overlays.
PlaneTortureOptions DrawCell(uint64_t seed, bool (&drawn)[kNumOverlays]) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  PlaneTortureOptions opt;
  opt.seed = seed;
  opt.num_dbs = 32;
  opt.steps = 120;
  for (bool& d : drawn) d = false;
  if (rng.NextBool(0.5)) {
    drawn[kWire] = true;
    opt.drop_p = 0.02 * static_cast<double>(1 + rng.NextBelow(5));
    opt.duplicate_p = 0.02 * static_cast<double>(1 + rng.NextBelow(5));
    opt.delay_p = 0.02 * static_cast<double>(1 + rng.NextBelow(5));
  }
  if (rng.NextBool(0.6)) {
    const auto num_nodes = static_cast<uint32_t>(opt.num_nodes);
    NodeFaultSpec f;
    f.node = static_cast<uint32_t>(1 + rng.NextBelow(num_nodes));
    f.at_step = static_cast<int>(10 + rng.NextBelow(50));
    f.duration_steps = static_cast<int>(10 + rng.NextBelow(40));
    switch (rng.NextBelow(3)) {
      case 0:
        f.kind = NodeFaultSpec::Kind::kCrash;
        drawn[kCrash] = true;
        break;
      case 1:
        f.kind = NodeFaultSpec::Kind::kPartition;
        f.direction =
            static_cast<net::PartitionSpec::Direction>(rng.NextBelow(3));
        drawn[kPartition] = true;
        break;
      default:
        f.kind = NodeFaultSpec::Kind::kSlow;
        f.slow_delay = static_cast<DurationSeconds>(30 + rng.NextBelow(60));
        drawn[kSlow] = true;
        break;
    }
    opt.faults = {f};
    // Sometimes a partition window cuts a second node too.
    if (f.kind == NodeFaultSpec::Kind::kPartition && rng.NextBool(0.5)) {
      f.node = f.node % num_nodes + 1;
      opt.faults.push_back(f);
    }
  }
  opt.storm = drawn[kStorm] = rng.NextBool(0.4);
  opt.outage = drawn[kOutage] = rng.NextBool(0.4);
  if (rng.NextBool(0.4)) {
    drawn[kPlaneCrash] = true;
    opt.crash_at_step = static_cast<int>(5 + rng.NextBelow(110));
  }
  opt.detection_enabled = !(drawn[kPassive] = rng.NextBool(0.25));
  return opt;
}

TEST(ChaosGauntletTest, RandomOverlayCombinationsHoldEveryInvariant) {
  int times_drawn[kNumOverlays] = {};
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    bool drawn[kNumOverlays];
    PlaneTortureOptions opt = DrawCell(seed, drawn);
    std::string tag = "seed=" + std::to_string(seed);
    for (int o = 0; o < kNumOverlays; ++o) {
      if (!drawn[o]) continue;
      ++times_drawn[o];
      tag += std::string(" ") + kOverlayNames[o];
    }
    opt.dir = FreshDir("gauntlet_" + std::to_string(seed));
    auto r = RunPlaneTorture(opt);
    ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
    EXPECT_TRUE(r->drained) << tag;
    EXPECT_EQ(r->lost_reactive, 0u) << tag;
    EXPECT_EQ(r->double_applies, 0u) << tag;
    EXPECT_EQ(r->stale_epoch_applied, 0u) << tag;
    EXPECT_EQ(r->double_live, 0u) << tag;
    EXPECT_EQ(r->fence_violations, 0u) << tag;
    EXPECT_FALSE(r->breaker_recovered_closed_early) << tag;
    EXPECT_TRUE(r->accounting_ok) << tag;
    EXPECT_GT(r->total_resumed, 0u) << tag;
    EXPECT_EQ(r->recoveries, drawn[kPlaneCrash] ? 1 : 0) << tag;
    // Without lost or late acks every verdict arrives inline, so a
    // redispatch can never find its own resume already performed.
    if (!drawn[kWire] && !drawn[kPartition] && !drawn[kSlow]) {
      EXPECT_EQ(r->duplicate_resumes, 0u) << tag;
    }
  }
  for (int o = 0; o < kNumOverlays; ++o) {
    EXPECT_GT(times_drawn[o], 0) << kOverlayNames[o] << " never drawn";
  }
}

}  // namespace
}  // namespace prorp::sim
