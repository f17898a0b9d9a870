#include <gtest/gtest.h>

#include "skyline/skyline.h"

namespace tasq {
namespace {

TEST(SkylineTest, BasicProperties) {
  Skyline s({2.0, 4.0, 6.0, 4.0});
  EXPECT_EQ(s.duration_seconds(), 4u);
  EXPECT_DOUBLE_EQ(s.Area(), 16.0);
  EXPECT_DOUBLE_EQ(s.Peak(), 6.0);
  EXPECT_DOUBLE_EQ(s.UsageAt(2), 6.0);
  EXPECT_DOUBLE_EQ(s.UsageAt(99), 0.0);
}

TEST(SkylineTest, EmptySkyline) {
  Skyline s;
  EXPECT_EQ(s.duration_seconds(), 0u);
  EXPECT_DOUBLE_EQ(s.Area(), 0.0);
  EXPECT_DOUBLE_EQ(s.Peak(), 0.0);
}

TEST(SkylineTest, NegativeSamplesClampToZero) {
  Skyline s({-1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.UsageAt(0), 0.0);
  EXPECT_DOUBLE_EQ(s.Area(), 3.0);
}

TEST(SplitSectionsTest, AlternatingSections) {
  // Usage: 5 5 1 1 6 relative to threshold 3.
  Skyline s({5.0, 5.0, 1.0, 1.0, 6.0});
  auto sections = SplitSections(s, 3.0);
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_TRUE(sections[0].over_threshold);
  EXPECT_EQ(sections[0].start, 0u);
  EXPECT_EQ(sections[0].end, 2u);
  EXPECT_FALSE(sections[1].over_threshold);
  EXPECT_EQ(sections[1].length(), 2u);
  EXPECT_TRUE(sections[2].over_threshold);
  EXPECT_EQ(sections[2].end, 5u);
}

TEST(SplitSectionsTest, ExactlyAtThresholdCountsAsUnder) {
  Skyline s({3.0, 3.0, 4.0});
  auto sections = SplitSections(s, 3.0);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_FALSE(sections[0].over_threshold);
  EXPECT_TRUE(sections[1].over_threshold);
}

TEST(SplitSectionsTest, SectionsCoverSkylineExactly) {
  Skyline s({1.0, 9.0, 2.0, 8.0, 8.0, 1.0});
  auto sections = SplitSections(s, 5.0);
  size_t covered = 0;
  size_t expected_start = 0;
  for (const auto& sec : sections) {
    EXPECT_EQ(sec.start, expected_start);
    covered += sec.length();
    expected_start = sec.end;
  }
  EXPECT_EQ(covered, s.duration_seconds());
}

TEST(SplitSectionsTest, EmptySkylineYieldsNoSections) {
  EXPECT_TRUE(SplitSections(Skyline(), 1.0).empty());
}

TEST(UtilizationTest, ClassifiesBandsRelativeToPeak) {
  // Peak 100: <20 minimum, <50 low, >=50 high.
  Skyline s({10.0, 30.0, 60.0, 100.0});
  UtilizationSummary summary = ClassifyUtilization(s);
  EXPECT_DOUBLE_EQ(summary.seconds_minimum, 1.0);
  EXPECT_DOUBLE_EQ(summary.seconds_low, 1.0);
  EXPECT_DOUBLE_EQ(summary.seconds_high, 2.0);
  EXPECT_DOUBLE_EQ(summary.total(), 4.0);
}

TEST(UtilizationTest, AllZeroSkylineIsAllMinimum) {
  Skyline s({0.0, 0.0});
  UtilizationSummary summary = ClassifyUtilization(s);
  EXPECT_DOUBLE_EQ(summary.seconds_minimum, 2.0);
  EXPECT_DOUBLE_EQ(summary.seconds_high, 0.0);
}

TEST(AllocationPolicyTest, DefaultPolicyIsFlatAtRequest) {
  Skyline s({10.0, 50.0, 20.0});
  auto alloc = AllocationSeries(s, AllocationPolicy::kDefault, 125.0);
  ASSERT_EQ(alloc.size(), 3u);
  for (double a : alloc) EXPECT_DOUBLE_EQ(a, 125.0);
}

TEST(AllocationPolicyTest, DefaultBelowPeakIsRaisedToPeak) {
  Skyline s({10.0, 50.0, 20.0});
  auto alloc = AllocationSeries(s, AllocationPolicy::kDefault, 30.0);
  for (double a : alloc) EXPECT_DOUBLE_EQ(a, 50.0);
}

TEST(AllocationPolicyTest, PeakPolicy) {
  Skyline s({10.0, 50.0, 20.0});
  auto alloc = AllocationSeries(s, AllocationPolicy::kPeak);
  for (double a : alloc) EXPECT_DOUBLE_EQ(a, 50.0);
}

TEST(AllocationPolicyTest, AdaptivePeakIsSuffixMaximum) {
  Skyline s({10.0, 50.0, 20.0, 30.0, 5.0});
  auto alloc = AllocationSeries(s, AllocationPolicy::kAdaptivePeak);
  std::vector<double> expected = {50.0, 50.0, 30.0, 30.0, 5.0};
  EXPECT_EQ(alloc, expected);
}

TEST(AllocationPolicyTest, AdaptiveNeverBelowUsageAndBelowPeak) {
  Skyline s({5.0, 80.0, 10.0, 40.0, 2.0});
  auto adaptive = AllocationSeries(s, AllocationPolicy::kAdaptivePeak);
  auto peak = AllocationSeries(s, AllocationPolicy::kPeak);
  for (size_t t = 0; t < s.duration_seconds(); ++t) {
    EXPECT_GE(adaptive[t], s.UsageAt(t));
    EXPECT_LE(adaptive[t], peak[t]);
  }
}

TEST(OverAllocationTest, ComputesWaste) {
  Skyline s({10.0, 50.0, 20.0});
  auto alloc = AllocationSeries(s, AllocationPolicy::kPeak);
  Result<double> waste = OverAllocation(s, alloc);
  ASSERT_TRUE(waste.ok());
  EXPECT_DOUBLE_EQ(waste.value(), (50 - 10) + (50 - 50) + (50 - 20));
}

TEST(OverAllocationTest, PolicyOrderingHolds) {
  // Waste(default >= peak >= adaptive) for any skyline.
  Skyline s({3.0, 9.0, 1.0, 7.0, 2.0});
  double d = OverAllocation(s, AllocationSeries(s, AllocationPolicy::kDefault,
                                                20.0))
                 .value();
  double p =
      OverAllocation(s, AllocationSeries(s, AllocationPolicy::kPeak)).value();
  double a =
      OverAllocation(s, AllocationSeries(s, AllocationPolicy::kAdaptivePeak))
          .value();
  EXPECT_GE(d, p);
  EXPECT_GE(p, a);
}

TEST(OverAllocationTest, RejectsStarvingAllocation) {
  Skyline s({10.0, 20.0});
  std::vector<double> alloc = {10.0, 5.0};
  EXPECT_FALSE(OverAllocation(s, alloc).ok());
}

TEST(OverAllocationTest, RejectsShortSeries) {
  Skyline s({10.0, 20.0});
  EXPECT_FALSE(OverAllocation(s, {30.0}).ok());
}

}  // namespace
}  // namespace tasq
