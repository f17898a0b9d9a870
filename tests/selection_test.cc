#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "selection/flighting.h"
#include "selection/job_selection.h"
#include "selection/kmeans.h"
#include "workload/generator.h"

namespace tasq {
namespace {

TEST(KMeansTest, SeparatesObviousClusters) {
  // Two tight blobs at (0,0) and (10,10).
  std::vector<double> data;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    data.push_back(rng.Normal(0.0, 0.3));
    data.push_back(rng.Normal(0.0, 0.3));
  }
  for (int i = 0; i < 50; ++i) {
    data.push_back(rng.Normal(10.0, 0.3));
    data.push_back(rng.Normal(10.0, 0.3));
  }
  Rng km_rng(2);
  Result<KMeansResult> result = KMeans(data, 100, 2, 2, km_rng);
  ASSERT_TRUE(result.ok());
  // All of the first 50 share a cluster; all of the last 50 share the other.
  int first = result.value().assignments[0];
  int second = result.value().assignments[50];
  EXPECT_NE(first, second);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(result.value().assignments[i], first);
    EXPECT_EQ(result.value().assignments[50 + i], second);
  }
  EXPECT_LT(result.value().inertia, 100.0);
}

TEST(KMeansTest, KEqualsRowsGivesZeroInertia) {
  std::vector<double> data = {0.0, 1.0, 2.0, 3.0};
  Rng rng(3);
  Result<KMeansResult> result = KMeans(data, 4, 1, 4, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().inertia, 0.0, 1e-12);
  std::set<int> assignments(result.value().assignments.begin(),
                            result.value().assignments.end());
  EXPECT_EQ(assignments.size(), 4u);
}

TEST(KMeansTest, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_FALSE(KMeans({}, 0, 2, 1, rng).ok());
  EXPECT_FALSE(KMeans({1.0, 2.0}, 2, 1, 3, rng).ok());  // k > rows.
  EXPECT_FALSE(KMeans({1.0, 2.0}, 2, 1, 0, rng).ok());
}

TEST(KMeansTest, NearestCentroidAgreesWithAssignments) {
  std::vector<double> data;
  Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    data.push_back(rng.Uniform(0.0, 10.0));
  }
  Rng km_rng(5);
  Result<KMeansResult> result = KMeans(data, 60, 1, 4, km_rng);
  ASSERT_TRUE(result.ok());
  const std::vector<double>& centroids = result.value().centroids;
  for (size_t r = 0; r < 60; ++r) {
    // The first centroid at the least squared distance (dim 1).
    int nearest = 0;
    double best = std::numeric_limits<double>::max();
    for (size_t c = 0; c < centroids.size(); ++c) {
      double d = data[r] - centroids[c];
      if (d * d < best) {
        best = d * d;
        nearest = static_cast<int>(c);
      }
    }
    EXPECT_EQ(nearest, result.value().assignments[r]);
  }
}

class SelectionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Population: two clusters, 70/30. The pool is heavily biased to the
    // minority cluster — exactly the situation in Figure 11.
    Rng rng(7);
    for (int i = 0; i < 700; ++i) {
      features_.push_back(rng.Normal(0.0, 0.5));
      summary_.push_back(rng.Normal(100.0, 10.0));
      template_ids_.push_back(i % 50);
    }
    for (int i = 0; i < 300; ++i) {
      features_.push_back(rng.Normal(10.0, 0.5));
      summary_.push_back(rng.Normal(200.0, 10.0));
      template_ids_.push_back(50 + i % 30);
    }
    // Pool: 40 from cluster A, 160 from cluster B.
    for (size_t i = 0; i < 40; ++i) pool_.push_back(i);
    for (size_t i = 700; i < 860; ++i) pool_.push_back(i);
  }

  std::vector<double> features_;
  std::vector<double> summary_;
  std::vector<int> template_ids_;
  std::vector<size_t> pool_;
};

TEST_F(SelectionFixture, MatchesPopulationProportions) {
  SelectionConfig config;
  config.num_clusters = 2;
  // Small enough that the pool's 40 majority-cluster jobs can fill the
  // majority cluster's quota.
  config.sample_size = 50;
  config.max_per_template = 5;
  Result<SelectionOutcome> outcome = SelectRepresentativeJobs(
      features_, 1000, 1, summary_, template_ids_, pool_, config);
  ASSERT_TRUE(outcome.ok());
  const SelectionOutcome& o = outcome.value();
  // Population split 70/30; the pool is 20/80; the subset must be close to
  // the population again.
  double pop_max = std::max(o.population_proportions[0],
                            o.population_proportions[1]);
  double sel_max =
      std::max(o.selected_proportions[0], o.selected_proportions[1]);
  EXPECT_NEAR(pop_max, 0.7, 0.05);
  EXPECT_NEAR(sel_max, pop_max, 0.12);
  // And the KS statistic improves (paper's quality evaluation).
  EXPECT_LT(o.ks_after, o.ks_before);
}

TEST_F(SelectionFixture, RespectsTemplateCap) {
  SelectionConfig config;
  config.num_clusters = 2;
  config.sample_size = 150;
  config.max_per_template = 2;
  Result<SelectionOutcome> outcome = SelectRepresentativeJobs(
      features_, 1000, 1, summary_, template_ids_, pool_, config);
  ASSERT_TRUE(outcome.ok());
  std::map<int, int> uses;
  for (size_t idx : outcome.value().selected) {
    ++uses[template_ids_[idx]];
  }
  for (const auto& [tmpl, count] : uses) {
    EXPECT_LE(count, 2) << "template " << tmpl;
  }
}

TEST_F(SelectionFixture, ValidatesInput) {
  SelectionConfig config;
  EXPECT_FALSE(SelectRepresentativeJobs({}, 0, 1, {}, {}, {}, config).ok());
  EXPECT_FALSE(SelectRepresentativeJobs(features_, 1000, 1, summary_,
                                        template_ids_, {}, config)
                   .ok());
  std::vector<size_t> bad_pool = {99999};
  EXPECT_FALSE(SelectRepresentativeJobs(features_, 1000, 1, summary_,
                                        template_ids_, bad_pool, config)
                   .ok());
}

TEST(FlightingTest, ProducesAllTokenFractionsDescending) {
  WorkloadGenerator generator(WorkloadConfig{});
  Job job = generator.GenerateJob(3);
  FlightConfig config;
  config.repetitions = 2;
  FlightHarness harness(config);
  Result<FlightedJob> flighted = harness.FlightJob(job);
  ASSERT_TRUE(flighted.ok());
  ASSERT_EQ(flighted.value().flights.size(), 4u);
  for (size_t i = 1; i < flighted.value().flights.size(); ++i) {
    EXPECT_LE(flighted.value().flights[i].tokens,
              flighted.value().flights[i - 1].tokens);
  }
  EXPECT_TRUE(flighted.value().enough_flights);
  EXPECT_TRUE(flighted.value().within_allocation);
  for (const FlightRecord& record : flighted.value().flights) {
    EXPECT_EQ(record.repetition_runtimes.size(), 2u);
    EXPECT_GT(record.runtime_seconds, 0.0);
    EXPECT_GT(record.skyline.duration_seconds(), 0u);
  }
}

TEST(FlightingTest, DeterministicGivenSeed) {
  WorkloadGenerator generator(WorkloadConfig{});
  Job job = generator.GenerateJob(8);
  FlightConfig config;
  config.seed = 42;
  FlightHarness a(config);
  FlightHarness b(config);
  auto fa = a.FlightJob(job);
  auto fb = b.FlightJob(job);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  for (size_t i = 0; i < fa.value().flights.size(); ++i) {
    EXPECT_DOUBLE_EQ(fa.value().flights[i].runtime_seconds,
                     fb.value().flights[i].runtime_seconds);
  }
}

TEST(FlightingTest, NoiselessFlightsAreMonotone) {
  WorkloadGenerator generator(WorkloadConfig{});
  FlightConfig config;
  config.noise.enabled = false;
  config.repetitions = 1;
  FlightHarness harness(config);
  for (const Job& job : generator.Generate(0, 15)) {
    Result<FlightedJob> flighted = harness.FlightJob(job);
    ASSERT_TRUE(flighted.ok());
    EXPECT_TRUE(flighted.value().monotone) << "job " << job.id;
    EXPECT_TRUE(flighted.value().NonAnomalous());
  }
}

TEST(FlightingTest, MostNoisyFlightsPassFilters) {
  // The paper found 96% of flighted jobs monotone within 10% tolerance; the
  // simulated cluster's noise model should land in the same regime.
  WorkloadGenerator generator(WorkloadConfig{});
  FlightHarness harness(FlightConfig{});
  std::vector<Job> jobs = generator.Generate(100, 40);
  std::vector<FlightedJob> flighted = harness.FlightJobs(jobs);
  ASSERT_EQ(flighted.size(), jobs.size());
  size_t kept = static_cast<size_t>(
      std::count_if(flighted.begin(), flighted.end(),
                    [](const FlightedJob& job) { return job.NonAnomalous(); }));
  EXPECT_GT(static_cast<double>(kept) / static_cast<double>(jobs.size()), 0.7);
}

}  // namespace
}  // namespace tasq
