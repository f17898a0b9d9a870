// End-to-end integration tests spanning the whole system: the Figure-4
// deployment loop through files, the §5.1-§5.2 validation chain, and the
// drift/retrain loop.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "arepas/arepas.h"
#include "common/stats.h"
#include "selection/flighting.h"
#include "selection/job_selection.h"
#include "tasq/evaluation.h"
#include "tasq/repository.h"
#include "tasq/tasq.h"
#include "tasq/what_if.h"
#include "workload/generator.h"

namespace tasq {
namespace {

TasqOptions FastOptions() {
  TasqOptions options;
  options.nn.epochs = 25;
  options.gnn.epochs = 2;
  options.gnn.gcn_hidden = {8};
  options.gnn.head_hidden = {8};
  options.xgb.gbdt.num_trees = 20;
  return options;
}

TEST(IntegrationTest, Figure4LoopThroughFiles) {
  // ingest -> repository file -> train -> model file -> scoring service.
  std::string repo_path = ::testing::TempDir() + "/itest_workload.txt";
  std::string model_path = ::testing::TempDir() + "/itest_model.txt";
  WorkloadConfig config;
  config.seed = 123;
  WorkloadGenerator generator(config);
  NoiseModel noise;
  noise.enabled = true;
  auto observed =
      ObserveWorkload(generator.Generate(0, 90), noise, 1).value();
  ASSERT_TRUE(SaveWorkloadToFile(repo_path, observed).ok());

  {
    auto workload = LoadWorkloadFromFile(repo_path);
    ASSERT_TRUE(workload.ok());
    Tasq trainer(FastOptions());
    ASSERT_TRUE(trainer.Train(workload.value()).ok());
    ASSERT_TRUE(trainer.SaveToFile(model_path).ok());
  }

  auto service = Tasq::LoadFromFile(model_path);
  ASSERT_TRUE(service.ok());
  Job incoming = generator.GenerateJob(5555);
  auto report = BuildWhatIfReport(service.value(), incoming.graph,
                                  ModelKind::kNn, incoming.default_tokens);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().has_pcc);
  EXPECT_GE(report.value().aggressive.tokens, 1.0);
  std::remove(repo_path.c_str());
  std::remove(model_path.c_str());
}

TEST(IntegrationTest, SelectionFlightingValidationChain) {
  // §5.1-§5.2 as one flow: select a representative subset under pool
  // constraints, flight it, filter anomalies, and validate AREPAS against
  // the flighted ground truth.
  WorkloadConfig config;
  config.seed = 321;
  WorkloadGenerator generator(config);
  auto jobs = generator.Generate(0, 250);

  std::vector<double> features;
  std::vector<double> summary;
  std::vector<int> template_ids;
  std::vector<size_t> pool;
  for (size_t i = 0; i < jobs.size(); ++i) {
    features.push_back(std::log1p(jobs[i].default_tokens));
    features.push_back(static_cast<double>(jobs[i].plan.stages.size()));
    summary.push_back(jobs[i].default_tokens);
    template_ids.push_back(jobs[i].template_id);
    // Pool constraint: a token range (the paper's operational filters).
    if (jobs[i].default_tokens >= 8.0 && jobs[i].default_tokens <= 300.0) {
      pool.push_back(i);
    }
  }
  SelectionConfig selection_config;
  selection_config.num_clusters = 4;
  selection_config.sample_size = 40;
  auto outcome = SelectRepresentativeJobs(features, jobs.size(), 2, summary,
                                          template_ids, pool,
                                          selection_config);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GE(outcome.value().selected.size(), 20u);

  std::vector<Job> selected;
  for (size_t idx : outcome.value().selected) selected.push_back(jobs[idx]);
  FlightHarness harness(FlightConfig{});
  std::vector<FlightedJob> flighted = harness.FlightJobs(selected);
  std::erase_if(flighted,
                [](const FlightedJob& job) { return !job.NonAnomalous(); });
  ASSERT_GE(flighted.size(), 10u);

  // AREPAS vs flighted truth: median error must stay in the paper's band.
  Arepas arepas;
  std::vector<double> errors;
  for (const FlightedJob& job : flighted) {
    const FlightRecord& reference = job.flights.front();
    for (size_t f = 1; f < job.flights.size(); ++f) {
      auto predicted = arepas.SimulateRunTimeSeconds(reference.skyline,
                                                     job.flights[f].tokens);
      ASSERT_TRUE(predicted.ok());
      errors.push_back(std::fabs(predicted.value() -
                                 job.flights[f].runtime_seconds) /
                       job.flights[f].runtime_seconds * 100.0);
    }
  }
  EXPECT_LT(Median(errors), 25.0);
}

TEST(IntegrationTest, RetrainRecoversFromCalibrationDrift) {
  // Drifted cluster: a stale model mispredicts systematically; retraining
  // on drifted telemetry fixes it.
  WorkloadConfig day0;
  day0.seed = 777;
  WorkloadConfig day1 = day0;
  day1.seconds_per_cost_unit = 2.5;

  NoiseModel noise;
  noise.enabled = true;
  auto train0 = ObserveWorkload(WorkloadGenerator(day0).Generate(0, 300),
                                noise, 1)
                    .value();
  auto train1 = ObserveWorkload(WorkloadGenerator(day1).Generate(500, 300),
                                noise, 2)
                    .value();
  auto test1 = ObserveWorkload(WorkloadGenerator(day1).Generate(600, 50),
                               noise, 3)
                   .value();
  Dataset test_dataset = DatasetBuilder().Build(test1).value();

  TasqOptions options = FastOptions();
  options.train_gnn = false;
  options.nn.epochs = 100;
  options.nn.learning_rate = 2e-3;
  Tasq stale(options);
  ASSERT_TRUE(stale.Train(train0).ok());
  Tasq fresh(options);
  ASSERT_TRUE(fresh.Train(train1).ok());

  auto stale_metrics =
      EvaluateModel(stale, ModelKind::kNn, test_dataset).value();
  auto fresh_metrics =
      EvaluateModel(fresh, ModelKind::kNn, test_dataset).value();
  // The stale model faces a 2.5x calibration shift it cannot see in the
  // features; retraining must cut the error substantially.
  EXPECT_GT(stale_metrics.median_ae_runtime_percent,
            fresh_metrics.median_ae_runtime_percent + 20.0);
}

}  // namespace
}  // namespace tasq
