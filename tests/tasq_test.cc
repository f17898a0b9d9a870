#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "tasq/dataset.h"
#include "tasq/evaluation.h"
#include "tasq/tasq.h"
#include "workload/generator.h"

namespace tasq {
namespace {

// Shared small workload so the expensive observation/training happens once.
class TasqFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.seed = 11;
    WorkloadGenerator generator(config);
    NoiseModel noise;
    noise.enabled = true;
    auto train_jobs = generator.Generate(0, 300);
    auto test_jobs = generator.Generate(300, 60);
    train_observed_ = new std::vector<ObservedJob>(
        ObserveWorkload(train_jobs, noise, 1).value());
    test_observed_ = new std::vector<ObservedJob>(
        ObserveWorkload(test_jobs, noise, 2).value());

    TasqOptions options;
    options.nn.epochs = 60;
    options.gnn.epochs = 8;
    options.gnn.gcn_hidden = {16, 8};
    options.gnn.head_hidden = {8};
    options.xgb.gbdt.num_trees = 60;
    pipeline_ = new Tasq(options);
    ASSERT_TRUE(pipeline_->Train(*train_observed_).ok());

    DatasetBuilder builder;
    test_dataset_ = new Dataset(builder.Build(*test_observed_).value());
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    delete train_observed_;
    delete test_observed_;
    delete test_dataset_;
    pipeline_ = nullptr;
    train_observed_ = nullptr;
    test_observed_ = nullptr;
    test_dataset_ = nullptr;
  }

  static Tasq* pipeline_;
  static std::vector<ObservedJob>* train_observed_;
  static std::vector<ObservedJob>* test_observed_;
  static Dataset* test_dataset_;
};

Tasq* TasqFixture::pipeline_ = nullptr;
std::vector<ObservedJob>* TasqFixture::train_observed_ = nullptr;
std::vector<ObservedJob>* TasqFixture::test_observed_ = nullptr;
Dataset* TasqFixture::test_dataset_ = nullptr;

TEST(ObserveWorkloadTest, ProducesConsistentTelemetry) {
  WorkloadGenerator generator(WorkloadConfig{});
  auto jobs = generator.Generate(0, 10);
  Result<std::vector<ObservedJob>> observed =
      ObserveWorkload(jobs, NoiseModel{}, 5);
  ASSERT_TRUE(observed.ok());
  ASSERT_EQ(observed.value().size(), 10u);
  for (const ObservedJob& entry : observed.value()) {
    EXPECT_GT(entry.runtime_seconds, 0.0);
    EXPECT_GE(entry.observed_tokens, entry.peak_tokens);
    EXPECT_GT(entry.skyline.Area(), 0.0);
    // Without noise, the skyline area equals the plan work.
    EXPECT_NEAR(entry.skyline.Area(), entry.job.plan.TotalWorkTokenSeconds(),
                1e-6);
  }
}

TEST(DatasetBuilderTest, BuildsTargetsAndAugmentedPoints) {
  WorkloadGenerator generator(WorkloadConfig{});
  auto jobs = generator.Generate(0, 20);
  auto observed = ObserveWorkload(jobs, NoiseModel{}, 3).value();
  DatasetBuilder builder;
  Result<Dataset> dataset = builder.Build(observed);
  ASSERT_TRUE(dataset.ok());
  const Dataset& d = dataset.value();
  EXPECT_EQ(d.size(), 20u);
  // 3 point fractions + 2 over-peak fractions per job.
  EXPECT_EQ(d.point_size(), 20u * 5u);
  for (const PowerLawPcc& target : d.targets) {
    EXPECT_TRUE(target.IsMonotoneNonIncreasing());
    EXPECT_GT(target.b, 0.0);
  }
  for (double runtime : d.point_runtimes) EXPECT_GT(runtime, 0.0);
  // Most jobs should have a genuinely decreasing target (the workload has
  // parallelism to trade).
  size_t decreasing = 0;
  for (const PowerLawPcc& target : d.targets) {
    if (target.a < -0.05) ++decreasing;
  }
  EXPECT_GT(decreasing, 10u);
}

TEST(DatasetBuilderTest, RejectsEmptyInput) {
  DatasetBuilder builder;
  EXPECT_FALSE(builder.Build({}).ok());
}

TEST(DatasetScalersTest, StandardizeRoundTrip) {
  WorkloadGenerator generator(WorkloadConfig{});
  auto observed =
      ObserveWorkload(generator.Generate(0, 15), NoiseModel{}, 3).value();
  Dataset dataset = DatasetBuilder().Build(observed).value();
  Result<DatasetScalers> scalers = FitScalers(dataset);
  ASSERT_TRUE(scalers.ok());
  ApplyScalers(scalers.value(), dataset);
  // Columns with variance should now be ~zero-mean over jobs.
  double mean0 = 0.0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    mean0 += dataset.job_features[i * dataset.job_feature_dim];
  }
  mean0 /= static_cast<double>(dataset.size());
  EXPECT_NEAR(mean0, 0.0, 1e-9);
}

TEST_F(TasqFixture, AllModelsTrainAndPredict) {
  EXPECT_TRUE(pipeline_->trained());
  const JobGraph& graph = (*test_observed_)[0].job.graph;
  double reference = (*test_observed_)[0].observed_tokens;
  for (ModelKind kind :
       {ModelKind::kXgboostPl, ModelKind::kNn, ModelKind::kGnn}) {
    Result<PowerLawPcc> pcc = pipeline_->PredictPcc(graph, kind, reference);
    ASSERT_TRUE(pcc.ok()) << ModelKindName(kind);
    EXPECT_GT(pcc.value().b, 0.0);
  }
  // XGBoost SS exposes curves, not parameters.
  EXPECT_EQ(
      pipeline_->PredictPcc(graph, ModelKind::kXgboostSs, reference)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  // An invalid graph fails with the code its own validation gives, on the
  // single-job path and on the curve path alike.
  JobGraph invalid = graph;
  invalid.operators.back().inputs.push_back(
      static_cast<int>(invalid.operators.size()));
  StatusCode invalid_code = invalid.Validate().code();
  ASSERT_NE(invalid_code, StatusCode::kOk);
  for (ModelKind kind :
       {ModelKind::kXgboostPl, ModelKind::kNn, ModelKind::kGnn}) {
    EXPECT_EQ(pipeline_->PredictPcc(invalid, kind, reference).status().code(),
              invalid_code)
        << ModelKindName(kind);
  }
  EXPECT_EQ(pipeline_
                ->PredictCurve(invalid, ModelKind::kXgboostSs, reference,
                               {reference})
                .status()
                .code(),
            invalid_code);
  Result<std::vector<PccSample>> curve = pipeline_->PredictCurve(
      graph, ModelKind::kXgboostSs, reference, {reference * 0.8, reference});
  ASSERT_TRUE(curve.ok());
  EXPECT_EQ(curve.value().size(), 2u);
}

TEST_F(TasqFixture, GnnBatchPredictionMatchesOneAtATime) {
  // Graphs of different sizes, plus a single-operator job: the batch's
  // segment offsets and CSR column shifts must leave every graph's
  // prediction as a batch of one computes it.
  JobGraph single;
  single.operators.resize(1);
  single.operators[0].features.output_cardinality = 1000.0;
  single.operators[0].features.cost_total = 12.0;
  std::vector<const JobGraph*> graphs;
  std::vector<double> tokens;
  for (size_t i = 0; i < 6; ++i) {
    graphs.push_back(&(*test_observed_)[i * 7].job.graph);
    tokens.push_back(50.0);
  }
  graphs.insert(graphs.begin() + 3, &single);
  tokens.push_back(50.0);
  std::set<size_t> sizes;
  for (const JobGraph* graph : graphs) sizes.insert(graph->operators.size());
  ASSERT_GE(sizes.size(), 5u);
  ASSERT_EQ(*sizes.begin(), 1u);

  TasqBatchScratch scratch;
  std::vector<PowerLawPcc> batch(graphs.size());
  ASSERT_TRUE(pipeline_
                  ->PredictPccBatchInto(graphs.data(), graphs.size(),
                                        ModelKind::kGnn, tokens.data(),
                                        scratch, batch.data())
                  .ok());
  for (size_t i = 0; i < graphs.size(); ++i) {
    Result<PowerLawPcc> one =
        pipeline_->PredictPcc(*graphs[i], ModelKind::kGnn, tokens[i]);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(batch[i].a, one.value().a) << "graph " << i;
    EXPECT_EQ(batch[i].b, one.value().b) << "graph " << i;
  }
}

TEST_F(TasqFixture, NnAndGnnAlwaysMonotoneOnTestSet) {
  for (const ObservedJob& entry : *test_observed_) {
    for (ModelKind kind : {ModelKind::kNn, ModelKind::kGnn}) {
      Result<PowerLawPcc> pcc = pipeline_->PredictPcc(
          entry.job.graph, kind, entry.observed_tokens);
      ASSERT_TRUE(pcc.ok());
      EXPECT_TRUE(pcc.value().IsMonotoneNonIncreasing());
    }
  }
}

TEST_F(TasqFixture, RuntimePredictionsAreUseful) {
  // The run-time prediction should carry real signal: across test jobs the
  // predictions must correlate with truth and have bounded median error.
  for (ModelKind kind : {ModelKind::kXgboostPl, ModelKind::kNn}) {
    Result<ModelEvalMetrics> metrics =
        EvaluateModel(*pipeline_, kind, *test_dataset_);
    ASSERT_TRUE(metrics.ok()) << ModelKindName(kind);
    EXPECT_LT(metrics.value().median_ae_runtime_percent, 80.0)
        << ModelKindName(kind);
    EXPECT_EQ(metrics.value().jobs, test_dataset_->size());
  }
}

TEST_F(TasqFixture, EvaluationMetricsShapeMatchesPaper) {
  Result<ModelEvalMetrics> ss =
      EvaluateModel(*pipeline_, ModelKind::kXgboostSs, *test_dataset_);
  Result<ModelEvalMetrics> pl =
      EvaluateModel(*pipeline_, ModelKind::kXgboostPl, *test_dataset_);
  Result<ModelEvalMetrics> nn =
      EvaluateModel(*pipeline_, ModelKind::kNn, *test_dataset_);
  Result<ModelEvalMetrics> gnn =
      EvaluateModel(*pipeline_, ModelKind::kGnn, *test_dataset_);
  ASSERT_TRUE(ss.ok());
  ASSERT_TRUE(pl.ok());
  ASSERT_TRUE(nn.ok());
  ASSERT_TRUE(gnn.ok());
  // NN/GNN guarantee the pattern; XGBoost cannot.
  EXPECT_DOUBLE_EQ(nn.value().pattern_nonincrease_percent, 100.0);
  EXPECT_DOUBLE_EQ(gnn.value().pattern_nonincrease_percent, 100.0);
  EXPECT_FALSE(ss.value().has_curve_params());
  EXPECT_TRUE(pl.value().has_curve_params());
  EXPECT_TRUE(nn.value().has_curve_params());
}

TEST_F(TasqFixture, RecommendationsSaveTokensWithBoundedSlowdown) {
  size_t saving_jobs = 0;
  for (const ObservedJob& entry : *test_observed_) {
    // A 2%-per-token diminishing-returns bar; stricter bars keep more jobs
    // at their reference allocation (the threshold is user policy).
    Result<TokenRecommendation> recommendation = pipeline_->RecommendTokens(
        entry.job.graph, ModelKind::kNn, entry.observed_tokens, 2.0);
    ASSERT_TRUE(recommendation.ok());
    EXPECT_GE(recommendation.value().tokens, 1.0);
    EXPECT_LE(recommendation.value().tokens, entry.observed_tokens);
    EXPECT_GE(recommendation.value().predicted_slowdown, -1e-9);
    if (recommendation.value().tokens < entry.observed_tokens) ++saving_jobs;
  }
  // The paper found most jobs can request fewer tokens.
  EXPECT_GT(saving_jobs, test_observed_->size() / 2);
}

TEST_F(TasqFixture, SlowdownBoundCapsRecommendationImpact) {
  for (const ObservedJob& entry : *test_observed_) {
    Result<TokenRecommendation> bounded = pipeline_->RecommendTokens(
        entry.job.graph, ModelKind::kNn, entry.observed_tokens, 1.0,
        /*max_slowdown_fraction=*/0.10);
    ASSERT_TRUE(bounded.ok());
    EXPECT_LE(bounded.value().predicted_slowdown, 0.10 + 0.02);
    // The bounded recommendation never requests fewer tokens than the
    // unbounded one.
    Result<TokenRecommendation> unbounded = pipeline_->RecommendTokens(
        entry.job.graph, ModelKind::kNn, entry.observed_tokens, 1.0);
    ASSERT_TRUE(unbounded.ok());
    EXPECT_GE(bounded.value().tokens + 1e-9, unbounded.value().tokens);
  }
}

TEST_F(TasqFixture, XgboostSsSlowdownBoundHolds) {
  const ObservedJob& entry = (*test_observed_)[4];
  Result<TokenRecommendation> bounded = pipeline_->RecommendTokens(
      entry.job.graph, ModelKind::kXgboostSs, entry.observed_tokens, 1.0,
      0.15);
  ASSERT_TRUE(bounded.ok());
  EXPECT_LE(bounded.value().predicted_slowdown, 0.15 + 0.02);
}

TEST_F(TasqFixture, XgboostSsRecommendationUsesSampledCurve) {
  const ObservedJob& entry = (*test_observed_)[2];
  Result<TokenRecommendation> recommendation = pipeline_->RecommendTokens(
      entry.job.graph, ModelKind::kXgboostSs, entry.observed_tokens, 1.0);
  ASSERT_TRUE(recommendation.ok()) << recommendation.status().ToString();
  EXPECT_GE(recommendation.value().tokens, 1.0);
  EXPECT_LE(recommendation.value().tokens, entry.observed_tokens);
  EXPECT_GT(recommendation.value().predicted_runtime_seconds, 0.0);
}

TEST_F(TasqFixture, XgboostSsHoldsTopKnotRuntimeAboveWindow) {
  // A natural spline extrapolates linearly past its top knot, and that
  // line can cross zero; above the window the curve is flat instead.
  for (const ObservedJob& entry : *test_observed_) {
    double reference = entry.observed_tokens;
    Result<SmoothingSpline> spline =
        pipeline_->PredictSmoothedCurve(entry.job.graph, reference);
    ASSERT_TRUE(spline.ok()) << spline.status().ToString();
    double top = spline.value().Eval(spline.value().knots().back());
    for (double scale : {1.5, 10.0, 1e12}) {
      Result<double> runtime = pipeline_->PredictRuntime(
          entry.job.graph, ModelKind::kXgboostSs, reference,
          scale * reference);
      ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
      EXPECT_TRUE(std::isfinite(runtime.value()));
      EXPECT_GT(runtime.value(), 0.0) << "scale " << scale;
      EXPECT_EQ(runtime.value(), top) << "scale " << scale;
    }
  }
}

TEST_F(TasqFixture, PredictRuntimeMatchesPccEvaluation) {
  const ObservedJob& entry = (*test_observed_)[1];
  Result<PowerLawPcc> pcc = pipeline_->PredictPcc(
      entry.job.graph, ModelKind::kNn, entry.observed_tokens);
  ASSERT_TRUE(pcc.ok());
  Result<double> runtime = pipeline_->PredictRuntime(
      entry.job.graph, ModelKind::kNn, entry.observed_tokens, 24.0);
  ASSERT_TRUE(runtime.ok());
  EXPECT_NEAR(runtime.value(), pcc.value().EvalRunTime(24.0), 1e-9);
}

TEST_F(TasqFixture, ScoringRejectsInvalidReferenceTokens) {
  // Each entry point rejects the token count before any model compares
  // with it (a NaN must not reach an ordered comparison: the FPE leg traps
  // FE_INVALID).
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kMax = std::numeric_limits<double>::max();
  const JobGraph& graph = (*test_observed_)[0].job.graph;
  for (ModelKind kind : {ModelKind::kXgboostSs, ModelKind::kXgboostPl,
                         ModelKind::kNn, ModelKind::kGnn}) {
    for (double tokens : {kNan, kInf, -kInf, 0.0, 0.5, 1e308, kMax}) {
      SCOPED_TRACE(std::string(ModelKindName(kind)) + " at " +
                   std::to_string(tokens));
      EXPECT_EQ(pipeline_->PredictPcc(graph, kind, tokens).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(pipeline_->PredictCurve(graph, kind, tokens, {8.0, 16.0})
                    .status()
                    .code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(pipeline_->RecommendTokens(graph, kind, tokens).status().code(),
                StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(
        pipeline_->RecommendTokens(graph, kind, 32.0, kNan).status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(pipeline_->RecommendTokens(graph, kind, 32.0, 1.0, kInf)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(TasqFixture, PredictCurveRejectsInvalidGridEntries) {
  // Every grid entry is checked before a model sees it: XGBoost-SS's
  // spline has no interval for a NaN, and a power law at 0, a negative or
  // an infinite count has no finite run time.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const ObservedJob& entry = (*test_observed_)[0];
  const std::vector<std::vector<double>> bad_grids = {
      {kNan}, {kInf}, {0.0}, {-1.0}, {10.0, kNan}};
  for (ModelKind kind : {ModelKind::kXgboostSs, ModelKind::kXgboostPl,
                         ModelKind::kNn, ModelKind::kGnn}) {
    SCOPED_TRACE(ModelKindName(kind));
    for (const std::vector<double>& grid : bad_grids) {
      EXPECT_EQ(pipeline_->PredictCurve(entry.job.graph, kind,
                                        entry.observed_tokens, grid)
                    .status()
                    .code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(pipeline_->PredictRuntime(entry.job.graph, kind,
                                          entry.observed_tokens, grid.back())
                    .status()
                    .code(),
                StatusCode::kInvalidArgument);
    }
    Result<std::vector<PccSample>> curve = pipeline_->PredictCurve(
        entry.job.graph, kind, entry.observed_tokens, {4.0, 16.0, 64.0});
    ASSERT_TRUE(curve.ok()) << curve.status().ToString();
    ASSERT_EQ(curve.value().size(), 3u);
    for (const PccSample& sample : curve.value()) {
      EXPECT_TRUE(std::isfinite(sample.runtime_seconds));
    }
  }
}

TEST_F(TasqFixture, UntrainedPipelineFailsCleanly) {
  Tasq fresh;
  const JobGraph& graph = (*test_observed_)[0].job.graph;
  for (ModelKind kind : {ModelKind::kXgboostSs, ModelKind::kXgboostPl,
                         ModelKind::kNn, ModelKind::kGnn}) {
    EXPECT_EQ(fresh.PredictPcc(graph, kind, 10.0).status().code(),
              StatusCode::kFailedPrecondition)
        << ModelKindName(kind);
  }
  EXPECT_EQ(fresh.RecommendTokens(graph, ModelKind::kNn, 10.0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(fresh.trained());

  // A model family left out of training fails the same way, while the
  // families that were trained still score.
  TasqOptions options;
  options.nn.epochs = 2;
  options.xgb.gbdt.num_trees = 5;
  options.train_gnn = false;
  Tasq without_gnn(options);
  std::vector<ObservedJob> few(train_observed_->begin(),
                               train_observed_->begin() + 60);
  ASSERT_TRUE(without_gnn.Train(few).ok());
  EXPECT_EQ(
      without_gnn.PredictPcc(graph, ModelKind::kGnn, 10.0).status().code(),
      StatusCode::kFailedPrecondition);
  EXPECT_TRUE(without_gnn.PredictPcc(graph, ModelKind::kNn, 10.0).ok());
}

}  // namespace
}  // namespace tasq
