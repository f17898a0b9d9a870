// Golden-file regression test: pins the full rendered what-if report for a
// fixed workload + training configuration against checked-in expectations
// under tests/golden/. Any change to featurization, training, inference,
// report math, or formatting shows up as a readable text diff. The NN and
// GNN model archives there pin the artifact layout the same way.
//
// To refresh the expectations after an intentional change:
//
//   ./tests/golden_test --update_golden
//
// then review and commit the rewritten files under tests/golden/.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "arbiter/allocation_arbiter.h"
#include "common/fpe.h"
#include "common/rng.h"
#include "common/text_io.h"
#include "gnn/gnn_model.h"
#include "nn/nn_model.h"
#include "simcluster/cluster_scheduler.h"
#include "tasq/what_if.h"
#include "workload/generator.h"

// Set from main() before the tests run.
static bool g_update_golden = false;

namespace tasq {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(TASQ_GOLDEN_DIR) + "/" + name;
}

const char* ModelSlug(ModelKind kind) {
  switch (kind) {
    case ModelKind::kXgboostSs: return "xgb_ss";
    case ModelKind::kXgboostPl: return "xgb_pl";
    case ModelKind::kNn: return "nn";
    case ModelKind::kGnn: return "gnn";
  }
  return "unknown";
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Compares `actual` against the named golden file, or rewrites the file
// when the binary ran with --update_golden.
void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (g_update_golden) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::string expected = ReadFileOrEmpty(path);
  ASSERT_FALSE(expected.empty())
      << path << " is missing; run golden_test --update_golden";
  EXPECT_EQ(actual, expected)
      << "report drifted from " << path
      << " (rerun with --update_golden if the change is intentional)";
}

class GoldenReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.seed = 17;
    generator_ = new WorkloadGenerator(config);
    NoiseModel noise;
    noise.enabled = true;
    auto observed =
        ObserveWorkload(generator_->Generate(0, 120), noise, 1).value();
    TasqOptions options;
    options.nn.epochs = 20;
    options.gnn.epochs = 2;
    options.gnn.gcn_hidden = {8};
    options.gnn.head_hidden = {8};
    options.xgb.gbdt.num_trees = 30;
    pipeline_ = new Tasq(options);
    ASSERT_TRUE(pipeline_->Train(observed).ok());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete generator_;
    pipeline_ = nullptr;
    generator_ = nullptr;
  }

  static Tasq* pipeline_;
  static WorkloadGenerator* generator_;
};

Tasq* GoldenReportTest::pipeline_ = nullptr;
WorkloadGenerator* GoldenReportTest::generator_ = nullptr;

TEST_F(GoldenReportTest, WhatIfReportsMatchGoldenFiles) {
  for (int64_t job_id : {900, 901}) {
    Job job = generator_->GenerateJob(job_id);
    for (ModelKind model : {ModelKind::kXgboostSs, ModelKind::kXgboostPl,
                            ModelKind::kNn, ModelKind::kGnn}) {
      auto report = BuildWhatIfReport(*pipeline_, job.graph, model,
                                      job.default_tokens, 9);
      ASSERT_TRUE(report.ok())
          << ModelKindName(model) << " job " << job_id;
      std::string name = std::string("what_if_") + ModelSlug(model) +
                         "_job" + std::to_string(job_id) + ".txt";
      CheckGolden(name, report.value().ToText());
    }
  }
}

// Pins the scheduled trace of a fixed 64-job multi-tenant workload under
// all four arbiter policies, so any change to arbitration, grant sizing,
// or the scheduler's event loop shows up as a readable line diff.
TEST(GoldenArbiterTest, PolicyTracesMatchGoldenFile) {
  WorkloadConfig config;
  config.seed = 23;
  WorkloadGenerator generator(config);
  auto jobs = generator.Generate(500, 64);
  constexpr double kPool = 400.0;
  Rng rng(2311);
  std::vector<Submission> submissions;
  double burst_start = 0.0;
  size_t i = 0;
  while (i < jobs.size()) {
    burst_start += rng.LogNormal(std::log(90.0), 0.7);
    int64_t burst = rng.UniformInt(2, 6);
    for (int64_t k = 0; k < burst && i < jobs.size(); ++k, ++i) {
      Submission submission;
      submission.job_id = jobs[i].id;
      submission.tenant_id = static_cast<int64_t>(i % 4);
      submission.arrival_seconds = burst_start + rng.Uniform(0.0, 4.0);
      submission.requested_tokens =
          std::min(kPool, std::max(1.0, jobs[i].default_tokens));
      submission.plan = jobs[i].plan;
      submissions.push_back(std::move(submission));
    }
  }
  ClusterScheduler scheduler(SchedulerConfig{kPool, false, {}, 42});
  std::string rendered;
  for (int p = 0; p < kArbiterPolicyCount; ++p) {
    ArbiterOptions options;
    options.policy = static_cast<ArbiterPolicy>(p);
    auto arbiter = MakeArbiter(options, BeliefsFromPlans(submissions));
    auto trace = scheduler.Run(submissions, arbiter.get());
    ASSERT_TRUE(trace.ok()) << ArbiterPolicyName(options.policy);
    rendered += std::string("== policy ") +
                ArbiterPolicyName(options.policy) + " ==\n";
    rendered += FormatTrace(trace.value());
  }
  CheckGolden("arbiter_policies.txt", rendered);
}

// Pins the scheduler's default FIFO admission (no arbiter) on a noisy,
// congested 48-job trace, with adaptive release off and on. Arrivals come
// in bursts at whole seconds, so several jobs arrive at one instant; a job
// that starts on arrival returns adaptive-release tokens at whole-second
// offsets, so those returns land on later arrival instants.
TEST(GoldenSchedulerTest, FifoTracesMatchGoldenFile) {
  WorkloadConfig config;
  config.seed = 29;
  WorkloadGenerator generator(config);
  auto jobs = generator.Generate(700, 48);
  constexpr double kPool = 200.0;
  Rng rng(2917);
  std::vector<Submission> submissions;
  double burst_start = 0.0;
  size_t i = 0;
  while (i < jobs.size()) {
    burst_start += static_cast<double>(rng.UniformInt(30, 90));
    int64_t burst = rng.UniformInt(1, 4);
    for (int64_t k = 0; k < burst && i < jobs.size(); ++k, ++i) {
      Submission submission;
      submission.job_id = jobs[i].id;
      submission.arrival_seconds = burst_start;
      submission.requested_tokens =
          std::min(kPool, std::max(1.0, jobs[i].default_tokens));
      submission.plan = jobs[i].plan;
      submissions.push_back(std::move(submission));
    }
  }
  std::string rendered;
  for (bool adaptive : {false, true}) {
    ClusterScheduler scheduler(
        SchedulerConfig{kPool, adaptive, {.enabled = true}, 7});
    auto trace = scheduler.Run(submissions);
    ASSERT_TRUE(trace.ok()) << "adaptive_release " << adaptive;
    rendered += std::string("== adaptive_release ") +
                (adaptive ? "on" : "off") + " ==\n";
    rendered += FormatTrace(trace.value());
  }
  CheckGolden("scheduler_fifo.txt", rendered);
}

// Pins the NN and GNN archive layouts (docs/FORMATS.md). Each file is a
// small trained model that an earlier build wrote; it must load trained
// and serialize back to the same bytes, so a tag renamed or reordered on
// both the writing and the reading side fails here. `%.17g` doubles
// round-trip exactly, so the check does not depend on the machine. Only
// --update_golden trains: the check itself reads the committed files.
template <typename Model>
std::string SerializedModel(const Model& model) {
  std::stringstream stream;
  TextArchiveWriter writer(stream);
  model.Serialize(writer);
  return stream.str();
}

template <typename Model>
void ExpectArchiveReserializes(const std::string& name) {
  std::string archive = ReadFileOrEmpty(GoldenPath(name));
  ASSERT_FALSE(archive.empty())
      << name << " is missing; run golden_test --update_golden";
  std::stringstream stream(archive);
  TextArchiveReader reader(stream);
  Model model = Model::Deserialize(reader);
  ASSERT_TRUE(reader.status().ok()) << name << ": " << reader.status().ToString();
  ASSERT_TRUE(model.trained()) << name;
  EXPECT_EQ(SerializedModel(model), archive)
      << name << " no longer round-trips (rerun with --update_golden only "
      << "if the archive format changed on purpose)";
}

PccSupervision ArchiveSupervision(size_t n, Rng& rng) {
  PccSupervision supervision;
  for (size_t i = 0; i < n; ++i) {
    PowerLawPcc target{-rng.Uniform(0.2, 0.8), std::exp(rng.Uniform(4.0, 7.0))};
    double tokens = rng.Uniform(10.0, 100.0);
    supervision.targets.push_back(target);
    supervision.observed_tokens.push_back(tokens);
    supervision.observed_runtime.push_back(target.EvalRunTime(tokens));
  }
  return supervision;
}

TEST(GoldenArchiveTest, ModelArchivesReserializeByteForByte) {
  if (g_update_golden) {
    constexpr size_t kDim = 5;
    Rng rng(31);
    std::vector<double> features(40 * kDim);
    for (double& v : features) v = rng.Uniform(-1.0, 1.0);
    NnOptions nn_options;
    nn_options.hidden_sizes = {4};
    nn_options.epochs = 3;
    NnPccModel nn(kDim, nn_options);
    ASSERT_TRUE(nn.Train(features, ArchiveSupervision(40, rng)).ok());
    CheckGolden("nn_model.txt", SerializedModel(nn));

    std::vector<GraphExample> graphs(20);
    for (GraphExample& graph : graphs) {
      graph.num_nodes = static_cast<size_t>(rng.UniformInt(2, 4));
      graph.node_features.resize(graph.num_nodes * kDim);
      for (double& v : graph.node_features) v = rng.Uniform(-1.0, 1.0);
      graph.norm_adjacency.assign(graph.num_nodes * graph.num_nodes, 0.0);
      for (size_t i = 0; i < graph.num_nodes; ++i) {
        graph.norm_adjacency[i * graph.num_nodes + i] = 1.0;
      }
    }
    GnnOptions gnn_options;
    gnn_options.gcn_hidden = {4};
    gnn_options.head_hidden = {4};
    gnn_options.epochs = 2;
    GnnPccModel gnn(kDim, gnn_options);
    ASSERT_TRUE(gnn.Train(graphs, ArchiveSupervision(20, rng)).ok());
    CheckGolden("gnn_model.txt", SerializedModel(gnn));
  }
  ExpectArchiveReserializes<NnPccModel>("nn_model.txt");
  ExpectArchiveReserializes<GnnPccModel>("gnn_model.txt");
}

}  // namespace
}  // namespace tasq

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  tasq::InstallFpeTrapsIfRequested();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update_golden") g_update_golden = true;
  }
  return RUN_ALL_TESTS();
}
