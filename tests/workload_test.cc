#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/stats.h"
#include "simcluster/cluster_simulator.h"
#include "workload/generator.h"
#include "workload/operators.h"

namespace tasq {
namespace {

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  double mx = Mean(x);
  double my = Mean(y);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  return sxy / std::sqrt(sxx * syy);
}

WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.seed = 42;
  return config;
}

TEST(OperatorTraitsTest, EveryOperatorHasAName) {
  std::set<std::string> names;
  for (size_t i = 0; i < kPhysicalOperatorCount; ++i) {
    auto op = static_cast<PhysicalOperator>(i);
    const OperatorTraits& traits = GetOperatorTraits(op);
    ASSERT_NE(traits.name, nullptr);
    EXPECT_GT(traits.cost_factor, 0.0);
    EXPECT_LE(traits.selectivity_lo, traits.selectivity_hi);
    names.insert(traits.name);
  }
  // Names are unique.
  EXPECT_EQ(names.size(), kPhysicalOperatorCount);
}

TEST(OperatorTraitsTest, PartitioningNames) {
  EXPECT_STREQ(PartitioningMethodName(PartitioningMethod::kHash), "Hash");
  EXPECT_STREQ(PartitioningMethodName(PartitioningMethod::kNone), "None");
}

TEST(WorkloadGeneratorTest, DeterministicPerJobId) {
  WorkloadGenerator generator(SmallConfig());
  Job a = generator.GenerateJob(17);
  Job b = generator.GenerateJob(17);
  EXPECT_EQ(a.plan.stages.size(), b.plan.stages.size());
  EXPECT_EQ(a.graph.operators.size(), b.graph.operators.size());
  EXPECT_DOUBLE_EQ(a.default_tokens, b.default_tokens);
  for (size_t s = 0; s < a.plan.stages.size(); ++s) {
    EXPECT_EQ(a.plan.stages[s].num_tasks, b.plan.stages[s].num_tasks);
    EXPECT_DOUBLE_EQ(a.plan.stages[s].task_duration_seconds,
                     b.plan.stages[s].task_duration_seconds);
  }
}

TEST(WorkloadGeneratorTest, JobIdsAreIndependentStreams) {
  // Generating job 5 alone equals generating jobs 0..9 and taking the 6th.
  WorkloadGenerator generator(SmallConfig());
  Job alone = generator.GenerateJob(5);
  std::vector<Job> batch = generator.Generate(0, 10);
  EXPECT_EQ(alone.plan.stages.size(), batch[5].plan.stages.size());
  EXPECT_DOUBLE_EQ(alone.default_tokens, batch[5].default_tokens);
}

TEST(WorkloadGeneratorTest, AllJobsStructurallyValid) {
  WorkloadGenerator generator(SmallConfig());
  for (const Job& job : generator.Generate(0, 200)) {
    EXPECT_TRUE(job.plan.Validate().ok()) << "job " << job.id;
    EXPECT_TRUE(job.graph.Validate().ok()) << "job " << job.id;
    EXPECT_GE(job.default_tokens, 1.0);
  }
}

TEST(WorkloadGeneratorTest, DefaultRequestCoversWidestStage) {
  WorkloadGenerator generator(SmallConfig());
  for (const Job& job : generator.Generate(0, 100)) {
    EXPECT_GE(job.default_tokens + 1e-9,
              static_cast<double>(job.plan.MaxStageTasks()));
  }
}

TEST(WorkloadGeneratorTest, GraphHasSingleSinkAndIsConnected) {
  WorkloadGenerator generator(SmallConfig());
  for (const Job& job : generator.Generate(0, 100)) {
    const auto& ops = job.graph.operators;
    // Exactly one operator (the last) has no consumers.
    std::vector<bool> consumed(ops.size(), false);
    for (const auto& node : ops) {
      for (int in : node.inputs) consumed[static_cast<size_t>(in)] = true;
    }
    int sinks = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!consumed[i]) ++sinks;
    }
    EXPECT_EQ(sinks, 1) << "job " << job.id;
    EXPECT_FALSE(consumed.back());
    EXPECT_EQ(ops.back().op, PhysicalOperator::kOutput);
  }
}

TEST(WorkloadGeneratorTest, MixesRecurringAndAdhoc) {
  WorkloadGenerator generator(SmallConfig());
  int recurring = 0;
  int adhoc = 0;
  std::set<int> templates;
  for (const Job& job : generator.Generate(0, 300)) {
    if (job.recurring) {
      ++recurring;
      EXPECT_GE(job.template_id, 0);
      templates.insert(job.template_id);
    } else {
      ++adhoc;
      EXPECT_EQ(job.template_id, -1);
    }
  }
  // Configured 60/40 split, with generous slack.
  EXPECT_GT(recurring, 120);
  EXPECT_GT(adhoc, 60);
  EXPECT_GT(templates.size(), 10u);
}

TEST(WorkloadGeneratorTest, RecurrencesOfATemplateDriftInScale) {
  WorkloadGenerator generator(SmallConfig());
  std::vector<Job> jobs = generator.Generate(0, 500);
  // Find a template with several recurrences and check input scales vary.
  for (int target = 0; target < 40; ++target) {
    std::vector<double> scales;
    for (const Job& job : jobs) {
      if (job.recurring && job.template_id == target) {
        scales.push_back(job.input_scale);
      }
    }
    if (scales.size() >= 5) {
      EXPECT_GT(StdDev(scales), 0.0);
      return;
    }
  }
  FAIL() << "no template recurred at least 5 times in 500 jobs";
}

TEST(WorkloadGeneratorTest, TokenDistributionIsRightSkewed) {
  // Shape of the paper's workload: mean peak tokens well above the median.
  WorkloadGenerator generator(SmallConfig());
  std::vector<double> widths;
  for (const Job& job : generator.Generate(0, 400)) {
    widths.push_back(static_cast<double>(job.plan.MaxStageTasks()));
  }
  double mean = Mean(widths);
  double median = Median(widths);
  EXPECT_GT(mean, median);
  EXPECT_GT(median, 5.0);
  EXPECT_LT(median, 200.0);
}

TEST(WorkloadGeneratorTest, RuntimeDistributionIsRightSkewed) {
  WorkloadGenerator generator(SmallConfig());
  ClusterSimulator sim;
  std::vector<double> runtimes;
  for (const Job& job : generator.Generate(0, 60)) {
    auto result = sim.Run(job.plan, RunConfig{job.default_tokens, {}, 0});
    ASSERT_TRUE(result.ok());
    runtimes.push_back(result.value().runtime_seconds);
  }
  EXPECT_GT(Mean(runtimes), Median(runtimes));
  // Median run time lands in the "few minutes" regime (shape target).
  EXPECT_GT(Median(runtimes), 20.0);
  EXPECT_LT(Median(runtimes), 2000.0);
}

TEST(WorkloadGeneratorTest, FeaturesAreFiniteAndPlausible) {
  WorkloadGenerator generator(SmallConfig());
  for (const Job& job : generator.Generate(0, 50)) {
    for (const OperatorNode& node : job.graph.operators) {
      const OperatorFeatures& f = node.features;
      EXPECT_GE(f.output_cardinality, 1.0);
      EXPECT_GE(f.leaf_input_cardinality, 0.0);
      EXPECT_GT(f.average_row_length, 0.0);
      EXPECT_GT(f.cost_exclusive, 0.0);
      EXPECT_GE(f.cost_subtree, f.cost_exclusive);
      EXPECT_GT(f.cost_total, 0.0);
      EXPECT_GE(f.num_partitions, 1);
      EXPECT_GE(f.num_partitioning_columns, 0);
      EXPECT_GE(f.num_sort_columns, 0);
      EXPECT_TRUE(std::isfinite(f.cost_subtree));
      EXPECT_TRUE(std::isfinite(f.output_cardinality));
    }
  }
}

TEST(WorkloadGeneratorTest, CostFeaturesTrackActualWork) {
  // The optimizer estimates must correlate with true work, else models
  // could never learn the PCC from compile-time features.
  WorkloadGenerator generator(SmallConfig());
  std::vector<double> estimated;
  std::vector<double> actual;
  for (const Job& job : generator.Generate(0, 150)) {
    estimated.push_back(job.graph.operators.back().features.cost_total);
    actual.push_back(job.plan.TotalWorkTokenSeconds());
  }
  EXPECT_GT(PearsonCorrelation(estimated, actual), 0.9);
}

TEST(WorkloadGeneratorTest, GlobalInputScaleGrowsJobs) {
  WorkloadConfig small = SmallConfig();
  WorkloadConfig grown = SmallConfig();
  grown.global_input_scale = 3.0;
  WorkloadGenerator small_gen(small);
  WorkloadGenerator grown_gen(grown);
  double small_work = 0.0;
  double grown_work = 0.0;
  for (int64_t id = 0; id < 60; ++id) {
    small_work += small_gen.GenerateJob(id).plan.TotalWorkTokenSeconds();
    grown_work += grown_gen.GenerateJob(id).plan.TotalWorkTokenSeconds();
  }
  // Work grows superlinearly in aggregate but at least noticeably.
  EXPECT_GT(grown_work, small_work * 1.5);
}

TEST(WorkloadGeneratorTest, CostCalibrationDriftHidesFromFeatures) {
  // Doubling seconds-per-cost-unit doubles real durations but leaves cost
  // features (in the optimizer's units) unchanged.
  WorkloadConfig base = SmallConfig();
  WorkloadConfig slow = SmallConfig();
  slow.seconds_per_cost_unit = 2.0;
  Job fast_job = WorkloadGenerator(base).GenerateJob(7);
  Job slow_job = WorkloadGenerator(slow).GenerateJob(7);
  ASSERT_EQ(fast_job.plan.stages.size(), slow_job.plan.stages.size());
  for (size_t s = 0; s < fast_job.plan.stages.size(); ++s) {
    double fast_d = fast_job.plan.stages[s].task_duration_seconds;
    double slow_d = slow_job.plan.stages[s].task_duration_seconds;
    // Clamping can cut the ratio at the [1, 600] bounds.
    if (fast_d > 1.0 && slow_d < 600.0) {
      EXPECT_NEAR(slow_d / fast_d, 2.0, 1e-9);
    }
  }
  ASSERT_EQ(fast_job.graph.operators.size(), slow_job.graph.operators.size());
  double fast_cost = fast_job.graph.operators.back().features.cost_total;
  double slow_cost = slow_job.graph.operators.back().features.cost_total;
  // Estimated cost stays in cost units: the ratio is ~1, not ~2.
  EXPECT_NEAR(slow_cost / fast_cost, 1.0, 0.25);
}

TEST(WorkloadGeneratorTest, OperatorStagesMatchPlanStages) {
  WorkloadGenerator generator(SmallConfig());
  for (const Job& job : generator.Generate(0, 50)) {
    EXPECT_EQ(job.graph.NumStages(),
              static_cast<int>(job.plan.stages.size()));
    for (const OperatorNode& node : job.graph.operators) {
      ASSERT_LT(node.stage, static_cast<int>(job.plan.stages.size()));
      EXPECT_EQ(node.features.num_partitions,
                job.plan.stages[static_cast<size_t>(node.stage)].num_tasks);
    }
  }
}

}  // namespace
}  // namespace tasq
