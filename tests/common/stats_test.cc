#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace prorp {
namespace {

TEST(SummaryTest, EmptySample) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.Mean(), 0);
  EXPECT_EQ(s.Percentile(0.5), 0);
  EXPECT_EQ(s.ToBoxPlot().count, 0u);
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  s.AddAll({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 15.0);
}

TEST(SummaryTest, ExactPercentiles) {
  Summary s;
  s.AddAll({10, 20, 30, 40, 50});
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 10);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 30);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 50);
  EXPECT_DOUBLE_EQ(s.Percentile(0.25), 20);
  // Interpolation between ranks.
  Summary t;
  t.AddAll({0, 10});
  EXPECT_DOUBLE_EQ(t.Percentile(0.5), 5);
}

TEST(SummaryTest, BoxPlotFiveNumbers) {
  Summary s;
  for (int i = 1; i <= 101; ++i) s.Add(i);
  BoxPlot b = s.ToBoxPlot();
  EXPECT_DOUBLE_EQ(b.min, 1);
  EXPECT_DOUBLE_EQ(b.q1, 26);
  EXPECT_DOUBLE_EQ(b.median, 51);
  EXPECT_DOUBLE_EQ(b.q3, 76);
  EXPECT_DOUBLE_EQ(b.max, 101);
  EXPECT_EQ(b.count, 101u);
  EXPECT_NE(b.ToString().find("med=51.0"), std::string::npos);
}

TEST(CdfTest, CoversFullRange) {
  Summary s;
  for (int i = 1; i <= 1000; ++i) s.Add(i);
  auto cdf = BuildCdf(s, 10);
  ASSERT_EQ(cdf.size(), 10u);
  EXPECT_DOUBLE_EQ(cdf.back().value, 1000);
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_fraction, 1.0);
  EXPECT_DOUBLE_EQ(cdf.front().cumulative_fraction, 0.1);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].cumulative_fraction, cdf[i - 1].cumulative_fraction);
  }
}

TEST(CdfTest, SmallSample) {
  Summary s;
  s.AddAll({5, 1, 3});
  auto cdf = BuildCdf(s, 10);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1);
  EXPECT_DOUBLE_EQ(cdf[2].value, 5);
  EXPECT_DOUBLE_EQ(cdf[2].cumulative_fraction, 1.0);
}

TEST(CdfTest, EmptyInputs) {
  Summary s;
  EXPECT_TRUE(BuildCdf(s).empty());
  s.Add(1);
  EXPECT_TRUE(BuildCdf(s, 0).empty());
}

TEST(CdfTest, FormatContainsLabelAndRows) {
  Summary s;
  s.AddAll({1, 2, 3, 4});
  std::string text = FormatCdf(BuildCdf(s, 4), "history KB");
  EXPECT_NE(text.find("history KB"), std::string::npos);
  EXPECT_NE(text.find("100.0%"), std::string::npos);
}

void ExpectSameAsSummary(const IntegerDistribution& d, const Summary& s) {
  EXPECT_EQ(d.count(), s.count());
  EXPECT_EQ(d.empty(), s.empty());
  EXPECT_EQ(d.Mean(), s.Mean());
  EXPECT_EQ(d.Min(), s.Min());
  EXPECT_EQ(d.Max(), s.Max());
  EXPECT_EQ(d.Sum(), s.Sum());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(d.Percentile(q), s.Percentile(q)) << "q=" << q;
  }
  BoxPlot a = d.ToBoxPlot();
  BoxPlot b = s.ToBoxPlot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.q1, b.q1);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.q3, b.q3);
  EXPECT_EQ(a.max, b.max);
}

TEST(IntegerDistributionTest, EmptyAndSingleSampleMatchSummary) {
  IntegerDistribution d;
  Summary s;
  ExpectSameAsSummary(d, s);
  d.Add(-7);
  s.Add(-7);
  ExpectSameAsSummary(d, s);
  EXPECT_EQ(d.counts().size(), 1u);
}

TEST(IntegerDistributionTest, RandomSamplesMatchSummary) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    IntegerDistribution d;
    Summary s;
    int n = static_cast<int>(rng.NextInt(0, 300));
    int64_t max_value = rng.NextInt(0, 50);
    for (int i = 0; i < n; ++i) {
      int64_t v = rng.NextInt(-3, max_value);
      d.Add(v);
      s.Add(static_cast<double>(v));
    }
    ExpectSameAsSummary(d, s);
    EXPECT_LE(d.counts().size(), static_cast<size_t>(max_value + 4));
  }
}

TEST(IntegerDistributionTest, MergeMatchesMergedSummary) {
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    IntegerDistribution merged;
    Summary merged_summary;
    int shards = static_cast<int>(rng.NextInt(1, 5));
    for (int shard = 0; shard < shards; ++shard) {
      IntegerDistribution d;
      Summary s;
      int n = static_cast<int>(rng.NextInt(0, 40));
      for (int i = 0; i < n; ++i) {
        int64_t v = rng.NextInt(0, 12);
        d.Add(v);
        s.Add(static_cast<double>(v));
      }
      merged.Merge(d);
      merged_summary.Merge(s);
    }
    ExpectSameAsSummary(merged, merged_summary);
  }
}

TEST(IntegerDistributionTest, AddWithCountEqualsRepeatedAdds) {
  IntegerDistribution a;
  IntegerDistribution b;
  a.Add(4, 3);
  a.Add(9, 0);
  for (int i = 0; i < 3; ++i) b.Add(4);
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_EQ(a.count(), 3u);
}

}  // namespace
}  // namespace prorp
