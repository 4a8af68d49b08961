#include "util/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace janus {
namespace {

TEST(MomentAccumulatorTest, AddRemoveRoundTrip) {
  MomentAccumulator acc;
  acc.Add(3.0);
  acc.Add(5.0);
  acc.Add(7.0);
  EXPECT_DOUBLE_EQ(acc.count, 3);
  EXPECT_DOUBLE_EQ(acc.sum, 15);
  EXPECT_DOUBLE_EQ(acc.sum_sq, 9 + 25 + 49);
  acc.Remove(5.0);
  EXPECT_DOUBLE_EQ(acc.count, 2);
  EXPECT_DOUBLE_EQ(acc.sum, 10);
  EXPECT_DOUBLE_EQ(acc.Mean(), 5.0);
}

TEST(MomentAccumulatorTest, VarianceMatchesClosedForm) {
  MomentAccumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(v);
  EXPECT_NEAR(acc.Variance(), 4.0, 1e-12);  // textbook example
}

TEST(MomentAccumulatorTest, MergeAndSubtract) {
  MomentAccumulator a, b;
  a.Add(1);
  a.Add(2);
  b.Add(10);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.count, 3);
  EXPECT_DOUBLE_EQ(a.sum, 13);
  a.Subtract(b);
  EXPECT_DOUBLE_EQ(a.count, 2);
  EXPECT_DOUBLE_EQ(a.sum, 3);
}

TEST(MomentAccumulatorTest, VarianceClampedNonNegative) {
  MomentAccumulator acc;
  acc.Add(1e9);
  acc.Add(1e9);
  EXPECT_GE(acc.Variance(), 0.0);
}

TEST(PercentileTest, MedianOfOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(PercentileTest, Extremes) {
  std::vector<double> v{5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 9.0);
}

TEST(PercentileTest, P95Interpolates) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_NEAR(Percentile(v, 95), 95.05, 1e-9);
}

TEST(PercentileTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

// Pins down the documented estimator: linear interpolation between closest
// ranks (Hyndman–Fan type 7), NOT nearest-rank. Nearest-rank would return
// 2 here; type-7 interpolates to 2.5.
TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({10, 20}, 25), 12.5);
  EXPECT_DOUBLE_EQ(Percentile({10, 20}, 75), 17.5);
}

TEST(PercentileTest, SingleElementIsThatElementAtAnyP) {
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.9), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 100), 7.0);
}

TEST(PercentileTest, OutOfRangePClampsToExtremes) {
  std::vector<double> v{5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, -10), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 250), 9.0);
}

TEST(LowerMedianTest, CeilHalfOrderStatistic) {
  std::vector<double> odd{5, 1, 9, 3, 7};
  EXPECT_EQ(LowerMedian(&odd), 5.0);
  std::vector<double> even{4, 1, 3, 2};
  EXPECT_EQ(LowerMedian(&even), 2.0);  // the 2nd of 4, not 2.5
  std::vector<double> ties{2, 2, 1, 2};
  EXPECT_EQ(LowerMedian(&ties), 2.0);
  std::vector<double> one{7};
  EXPECT_EQ(LowerMedian(&one), 7.0);
  std::vector<double> none;
  EXPECT_TRUE(std::isnan(LowerMedian(&none)));
}

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
}

TEST(NormalZTest, StandardQuantiles) {
  EXPECT_NEAR(NormalZ(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(NormalZ(0.99), 2.575829, 1e-4);
  EXPECT_NEAR(NormalZ(0.90), 1.644854, 1e-4);
}

TEST(NormalZTest, MonotoneInConfidence) {
  double prev = 0;
  for (double c : {0.5, 0.8, 0.9, 0.95, 0.99, 0.999}) {
    const double z = NormalZ(c);
    EXPECT_GT(z, prev);
    prev = z;
  }
}

}  // namespace
}  // namespace janus
