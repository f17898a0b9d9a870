#include <gtest/gtest.h>

#include <cmath>

#include "pcc/pcc.h"
#include "simcluster/cluster_simulator.h"
#include "simcluster/job_plan.h"

namespace tasq {
namespace {

JobPlan SingleStagePlan(int tasks, double duration) {
  JobPlan plan;
  plan.stages.push_back(StageSpec{0, {}, tasks, duration});
  return plan;
}

// A 3-stage chain: wide extract, narrow aggregate, medium output.
JobPlan ChainPlan() {
  JobPlan plan;
  plan.stages.push_back(StageSpec{0, {}, 40, 10.0});
  plan.stages.push_back(StageSpec{1, {0}, 4, 20.0});
  plan.stages.push_back(StageSpec{2, {1}, 12, 5.0});
  return plan;
}

TEST(JobPlanTest, WorkAndCriticalPath) {
  JobPlan plan = ChainPlan();
  EXPECT_DOUBLE_EQ(plan.TotalWorkTokenSeconds(), 40 * 10.0 + 4 * 20.0 + 60.0);
  EXPECT_EQ(plan.MaxStageTasks(), 40);
  EXPECT_DOUBLE_EQ(plan.CriticalPathSeconds(), 35.0);
}

TEST(JobPlanTest, CriticalPathTakesLongestBranch) {
  JobPlan plan;
  plan.stages.push_back(StageSpec{0, {}, 1, 5.0});
  plan.stages.push_back(StageSpec{1, {}, 1, 50.0});
  plan.stages.push_back(StageSpec{2, {0, 1}, 1, 3.0});
  EXPECT_DOUBLE_EQ(plan.CriticalPathSeconds(), 53.0);
}

TEST(JobPlanTest, ValidateCatchesStructuralErrors) {
  EXPECT_FALSE(JobPlan{}.Validate().ok());

  JobPlan bad_id;
  bad_id.stages.push_back(StageSpec{1, {}, 1, 1.0});
  EXPECT_FALSE(bad_id.Validate().ok());

  JobPlan bad_tasks;
  bad_tasks.stages.push_back(StageSpec{0, {}, 0, 1.0});
  EXPECT_FALSE(bad_tasks.Validate().ok());

  JobPlan bad_duration;
  bad_duration.stages.push_back(StageSpec{0, {}, 1, 0.0});
  EXPECT_FALSE(bad_duration.Validate().ok());

  JobPlan forward_dep;
  forward_dep.stages.push_back(StageSpec{0, {1}, 1, 1.0});
  forward_dep.stages.push_back(StageSpec{1, {}, 1, 1.0});
  EXPECT_FALSE(forward_dep.Validate().ok());

  EXPECT_TRUE(ChainPlan().Validate().ok());
}

TEST(ClusterSimulatorTest, SerialExecutionOnOneToken) {
  ClusterSimulator sim;
  JobPlan plan = SingleStagePlan(10, 3.0);
  Result<RunResult> result = sim.Run(plan, RunConfig{1.0, {}, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().runtime_seconds, 30.0);
  EXPECT_DOUBLE_EQ(result.value().peak_tokens_used, 1.0);
  EXPECT_NEAR(result.value().skyline.Area(), 30.0, 1e-9);
}

TEST(ClusterSimulatorTest, FullParallelismBoundsRuntimeByStageDuration) {
  ClusterSimulator sim;
  JobPlan plan = SingleStagePlan(10, 3.0);
  Result<RunResult> result = sim.Run(plan, RunConfig{10.0, {}, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().runtime_seconds, 3.0);
  EXPECT_DOUBLE_EQ(result.value().peak_tokens_used, 10.0);
}

TEST(ClusterSimulatorTest, PartialParallelismWaves) {
  // 10 tasks on 4 tokens: ceil(10/4) = 3 waves of 3 seconds.
  ClusterSimulator sim;
  JobPlan plan = SingleStagePlan(10, 3.0);
  Result<RunResult> result = sim.Run(plan, RunConfig{4.0, {}, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().runtime_seconds, 9.0);
}

TEST(ClusterSimulatorTest, StageBarrierIsRespected) {
  // Stage 1 cannot overlap stage 0, so runtime is the sum even with ample
  // tokens.
  ClusterSimulator sim;
  JobPlan plan;
  plan.stages.push_back(StageSpec{0, {}, 8, 5.0});
  plan.stages.push_back(StageSpec{1, {0}, 8, 7.0});
  Result<RunResult> result = sim.Run(plan, RunConfig{100.0, {}, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().runtime_seconds, 12.0);
}

TEST(ClusterSimulatorTest, IndependentStagesOverlap) {
  ClusterSimulator sim;
  JobPlan plan;
  plan.stages.push_back(StageSpec{0, {}, 4, 10.0});
  plan.stages.push_back(StageSpec{1, {}, 4, 10.0});
  Result<RunResult> result = sim.Run(plan, RunConfig{8.0, {}, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().runtime_seconds, 10.0);
  EXPECT_DOUBLE_EQ(result.value().peak_tokens_used, 8.0);
}

TEST(ClusterSimulatorTest, SkylineAreaEqualsWorkWithoutNoise) {
  ClusterSimulator sim;
  JobPlan plan = ChainPlan();
  for (double tokens : {1.0, 3.0, 7.0, 20.0, 40.0, 100.0}) {
    Result<RunResult> result = sim.Run(plan, RunConfig{tokens, {}, 0});
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result.value().skyline.Area(), plan.TotalWorkTokenSeconds(),
                1e-6)
        << "tokens=" << tokens;
  }
}

TEST(ClusterSimulatorTest, SkylineNeverExceedsAllocation) {
  ClusterSimulator sim;
  JobPlan plan = ChainPlan();
  Result<RunResult> result = sim.Run(plan, RunConfig{13.0, {}, 0});
  ASSERT_TRUE(result.ok());
  for (double v : result.value().skyline.values()) {
    EXPECT_LE(v, 13.0 + 1e-9);
  }
}

TEST(ClusterSimulatorTest, RuntimeNonIncreasingInTokens) {
  ClusterSimulator sim;
  JobPlan plan = ChainPlan();
  double previous = 1e18;
  for (double tokens = 1.0; tokens <= 45.0; tokens += 1.0) {
    Result<RunResult> result = sim.Run(plan, RunConfig{tokens, {}, 0});
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result.value().runtime_seconds, previous + 1e-9);
    previous = result.value().runtime_seconds;
  }
}

TEST(ClusterSimulatorTest, RuntimeBoundedBelowByCriticalPath) {
  ClusterSimulator sim;
  JobPlan plan = ChainPlan();
  Result<RunResult> result = sim.Run(plan, RunConfig{10000.0, {}, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().runtime_seconds, plan.CriticalPathSeconds(),
              1e-9);
}

TEST(ClusterSimulatorTest, DeterministicWithoutNoise) {
  ClusterSimulator sim;
  JobPlan plan = ChainPlan();
  auto a = sim.Run(plan, RunConfig{9.0, {}, 1});
  auto b = sim.Run(plan, RunConfig{9.0, {}, 2});  // Seed ignored, no noise.
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().skyline, b.value().skyline);
}

TEST(ClusterSimulatorTest, NoiseSeedChangesRun) {
  ClusterSimulator sim;
  JobPlan plan = ChainPlan();
  NoiseModel noise;
  noise.enabled = true;
  auto a = sim.Run(plan, RunConfig{9.0, noise, 1});
  auto b = sim.Run(plan, RunConfig{9.0, noise, 2});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().runtime_seconds, b.value().runtime_seconds);
  // Same seed reproduces exactly.
  auto a2 = sim.Run(plan, RunConfig{9.0, noise, 1});
  EXPECT_EQ(a.value().skyline, a2.value().skyline);
}

TEST(ClusterSimulatorTest, NoiseKeepsAreaRoughlyConstant) {
  // The AREPAS assumption under realistic noise: areas of the same job at
  // different allocations stay within a modest tolerance.
  ClusterSimulator sim;
  JobPlan plan = ChainPlan();
  NoiseModel noise;
  noise.enabled = true;
  noise.usage_outlier_probability = 0.0;  // Outliers tested separately.
  double base = plan.TotalWorkTokenSeconds();
  for (double tokens : {5.0, 10.0, 20.0, 40.0}) {
    auto result = sim.Run(plan, RunConfig{tokens, noise, 3});
    ASSERT_TRUE(result.ok());
    double area = result.value().skyline.Area();
    EXPECT_GT(area, base * 0.7);
    EXPECT_LT(area, base * 1.5);
  }
}

TEST(ClusterSimulatorTest, UsageNoiseScalesAreaNotRuntime) {
  // The usage-accounting noise must change the recorded skyline without
  // moving the makespan.
  ClusterSimulator sim;
  JobPlan plan = ChainPlan();
  NoiseModel quiet;  // Everything off except usage noise.
  quiet.enabled = true;
  quiet.duration_jitter_sigma = 0.0;
  quiet.straggler_probability = 0.0;
  quiet.failure_probability = 0.0;
  quiet.usage_scale_sigma = 0.2;
  quiet.usage_outlier_probability = 0.0;
  auto noisy = sim.Run(plan, RunConfig{9.0, quiet, 5});
  NoiseModel off;
  auto clean = sim.Run(plan, RunConfig{9.0, off, 5});
  ASSERT_TRUE(noisy.ok());
  ASSERT_TRUE(clean.ok());
  EXPECT_DOUBLE_EQ(noisy.value().runtime_seconds,
                   clean.value().runtime_seconds);
  double ratio = noisy.value().skyline.Area() / clean.value().skyline.Area();
  EXPECT_NE(ratio, 1.0);
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.6);
}

TEST(ClusterSimulatorTest, NoiseChannelsDrawPerTask) {
  // Every task must take its own draws: a run whose tasks share one draw
  // (every task straggles or none does, one jitter factor for all) keeps
  // each mean plausible for a single seed yet destroys the per-task
  // statistics the flighting noise stands in for. One stage of 20,000
  // 10 s tasks; bounds are 5 sigma, so a correct stream fails them with
  // probability ~1e-6 per check.
  constexpr int kTasks = 20000;
  constexpr double kDuration = 10.0;
  JobPlan plan = SingleStagePlan(kTasks, kDuration);
  NoiseModel quiet;  // Usage-accounting noise off: the runtime is the sum.
  quiet.enabled = true;
  quiet.failure_probability = 0.0;
  quiet.usage_scale_sigma = 0.0;
  quiet.usage_outlier_probability = 0.0;
  NoiseModel stragglers = quiet;
  stragglers.duration_jitter_sigma = 0.0;
  NoiseModel jitter = quiet;
  jitter.straggler_probability = 0.0;
  ClusterSimulator sim;
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    // On one token the runtime is the sum of the durations, and each
    // straggler adds exactly one more base duration (factor 2).
    auto serial = sim.Run(plan, RunConfig{1.0, stragglers, seed});
    ASSERT_TRUE(serial.ok());
    double straggled = serial.value().runtime_seconds / kDuration - kTasks;
    double p = stragglers.straggler_probability;
    double expected = kTasks * p;
    EXPECT_NEAR(straggled, expected, 5.0 * std::sqrt(expected * (1.0 - p)));

    // The log-normal multiplier has mean 1 and standard deviation ~sigma.
    auto jittered = sim.Run(plan, RunConfig{1.0, jitter, seed});
    ASSERT_TRUE(jittered.ok());
    double sigma = jitter.duration_jitter_sigma;
    EXPECT_NEAR(jittered.value().runtime_seconds / (kTasks * kDuration), 1.0,
                5.0 * sigma / std::sqrt(static_cast<double>(kTasks)));

    // All tasks at once: the makespan is the largest of 20,000 multipliers,
    // which lands over 4 sigma above 1. One shared draw would exceed
    // 3 sigma with probability ~0.1%.
    auto parallel = sim.Run(plan, RunConfig{kTasks, jitter, seed});
    ASSERT_TRUE(parallel.ok());
    EXPECT_GT(parallel.value().runtime_seconds / kDuration, 1.0 + 3.0 * sigma);
  }
}

TEST(ClusterSimulatorTest, UsageOutliersCanExceedAllocation) {
  // Filter (2) of the flighting protocol exists because errant jobs record
  // more usage than allocated; the outlier mode reproduces that.
  ClusterSimulator sim;
  JobPlan plan = ChainPlan();
  NoiseModel noise;
  noise.enabled = true;
  noise.usage_outlier_probability = 1.0;
  auto result = sim.Run(plan, RunConfig{9.0, noise, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().skyline.Peak(), 9.0);
}

TEST(ClusterSimulatorTest, RejectsInvalidConfig) {
  ClusterSimulator sim;
  JobPlan plan = ChainPlan();
  EXPECT_FALSE(sim.Run(plan, RunConfig{0.5, {}, 0}).ok());
  EXPECT_FALSE(sim.Run(JobPlan{}, RunConfig{4.0, {}, 0}).ok());
}

TEST(ClusterSimulatorTest, GroundTruthPccIsPowerLawShaped) {
  // The simulator must produce the diminishing-returns curve the paper
  // models: a power-law fit in log-log space should be decreasing and
  // explain most of the variance (Figure 3 / Figure 9).
  ClusterSimulator sim;
  JobPlan plan;
  plan.stages.push_back(StageSpec{0, {}, 64, 12.0});
  plan.stages.push_back(StageSpec{1, {0}, 16, 8.0});
  plan.stages.push_back(StageSpec{2, {1}, 32, 6.0});
  std::vector<PccSample> samples;
  for (double tokens = 2.0; tokens <= 64.0; tokens *= 2.0) {
    auto result = sim.Run(plan, RunConfig{tokens, {}, 0});
    ASSERT_TRUE(result.ok());
    samples.push_back({tokens, result.value().runtime_seconds});
  }
  Result<PowerLawFit> fit = FitPowerLaw(samples);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(fit.value().pcc.a, -0.3);
  EXPECT_GT(fit.value().log_log_r2, 0.9);
}

TEST(ClusterSimulatorTest, FractionalTokensAreFloored) {
  ClusterSimulator sim;
  JobPlan plan = SingleStagePlan(10, 3.0);
  auto frac = sim.Run(plan, RunConfig{4.9, {}, 0});
  auto whole = sim.Run(plan, RunConfig{4.0, {}, 0});
  ASSERT_TRUE(frac.ok());
  ASSERT_TRUE(whole.ok());
  EXPECT_DOUBLE_EQ(frac.value().runtime_seconds,
                   whole.value().runtime_seconds);
}

}  // namespace
}  // namespace tasq
