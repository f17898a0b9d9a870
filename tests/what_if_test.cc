#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gbdt/gbdt.h"
#include "tasq/what_if.h"
#include "workload/generator.h"

namespace tasq {
namespace {

class WhatIfFixture : public ::testing::Test {
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

Tasq* WhatIfFixture::pipeline_ = nullptr;
WorkloadGenerator* WhatIfFixture::generator_ = nullptr;

TEST_F(WhatIfFixture, ReportIsInternallyConsistent) {
  Job job = generator_->GenerateJob(900);
  for (ModelKind model : {ModelKind::kNn, ModelKind::kGnn,
                          ModelKind::kXgboostPl, ModelKind::kXgboostSs}) {
    auto report = BuildWhatIfReport(*pipeline_, job.graph, model,
                                    job.default_tokens, 9);
    ASSERT_TRUE(report.ok()) << ModelKindName(model);
    const WhatIfReport& r = report.value();
    EXPECT_EQ(r.has_pcc, model != ModelKind::kXgboostSs);
    ASSERT_EQ(r.curve.size(), 9u);
    // Curve spans 20%..100% of the reference.
    EXPECT_NEAR(r.curve.back().tokens, job.default_tokens, 1e-9);
    EXPECT_LE(r.curve.front().tokens, job.default_tokens * 0.2 + 1.0);
    // The reference point itself has zero slowdown and zero savings.
    EXPECT_NEAR(r.curve.back().predicted_slowdown, 0.0, 1e-9);
    EXPECT_NEAR(r.curve.back().token_savings_fraction, 0.0, 1e-9);
    // Recommendations are within range; bounded never requests fewer
    // tokens than aggressive.
    EXPECT_GE(r.aggressive.tokens, 1.0);
    EXPECT_LE(r.aggressive.tokens, job.default_tokens);
    EXPECT_GE(r.bounded.tokens + 1e-9, r.aggressive.tokens);
  }
}

TEST_F(WhatIfFixture, ReportMatchesCurveAndRecommendationEntryPoints) {
  // A report is the same curve and the same two recommendations the
  // pipeline's own entry points give, to the bit, for every model kind:
  // XGBoost-SS's spline and a parametric PCC each feed one assembly.
  for (int64_t id : {905, 906, 907}) {
    Job job = generator_->GenerateJob(id);
    for (ModelKind model : {ModelKind::kNn, ModelKind::kGnn,
                            ModelKind::kXgboostPl, ModelKind::kXgboostSs}) {
      SCOPED_TRACE(std::string(ModelKindName(model)) + " job " +
                   std::to_string(id));
      Result<WhatIfReport> report = BuildWhatIfReport(
          *pipeline_, job.graph, model, job.default_tokens, 9);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      const WhatIfReport& r = report.value();
      std::vector<double> grid;
      for (const WhatIfPoint& point : r.curve) grid.push_back(point.tokens);
      Result<std::vector<PccSample>> curve =
          pipeline_->PredictCurve(job.graph, model, job.default_tokens, grid);
      ASSERT_TRUE(curve.ok()) << curve.status().ToString();
      ASSERT_EQ(curve.value().size(), r.curve.size());
      for (size_t i = 0; i < r.curve.size(); ++i) {
        EXPECT_EQ(r.curve[i].predicted_runtime_seconds,
                  curve.value()[i].runtime_seconds);
      }
      for (auto [slo, point] : {std::pair{-1.0, &r.aggressive},
                                std::pair{0.10, &r.bounded}}) {
        Result<TokenRecommendation> recommendation =
            pipeline_->RecommendTokens(job.graph, model, job.default_tokens,
                                       1.0, slo);
        ASSERT_TRUE(recommendation.ok()) << recommendation.status().ToString();
        EXPECT_EQ(point->tokens, recommendation.value().tokens);
        EXPECT_EQ(point->predicted_runtime_seconds,
                  recommendation.value().predicted_runtime_seconds);
        EXPECT_EQ(point->predicted_slowdown,
                  recommendation.value().predicted_slowdown);
      }
    }
  }
}

TEST_F(WhatIfFixture, MonotoneModelsProduceMonotoneCurvePoints) {
  Job job = generator_->GenerateJob(901);
  auto report = BuildWhatIfReport(*pipeline_, job.graph, ModelKind::kNn,
                                  job.default_tokens);
  ASSERT_TRUE(report.ok());
  for (size_t i = 1; i < report.value().curve.size(); ++i) {
    EXPECT_LE(report.value().curve[i].predicted_runtime_seconds,
              report.value().curve[i - 1].predicted_runtime_seconds + 1e-9);
  }
}

TEST_F(WhatIfFixture, ToTextMentionsKeyNumbers) {
  Job job = generator_->GenerateJob(902);
  auto report = BuildWhatIfReport(*pipeline_, job.graph, ModelKind::kNn,
                                  job.default_tokens);
  ASSERT_TRUE(report.ok());
  std::string text = report.value().ToText();
  EXPECT_NE(text.find("What-if report (NN)"), std::string::npos);
  EXPECT_NE(text.find("predicted PCC"), std::string::npos);
  EXPECT_NE(text.find("aggressive"), std::string::npos);
  EXPECT_NE(text.find("bounded"), std::string::npos);
}

TEST_F(WhatIfFixture, ValidatesInput) {
  Job job = generator_->GenerateJob(903);
  EXPECT_FALSE(
      BuildWhatIfReport(*pipeline_, job.graph, ModelKind::kNn, 0.5).ok());
  Tasq untrained;
  EXPECT_FALSE(
      BuildWhatIfReport(untrained, job.graph, ModelKind::kNn, 50.0).ok());

  // Malformed scoring numbers fail with InvalidArgument before anything
  // compares or allocates with them: a NaN must not reach an ordered
  // comparison (SIGFPE under TASQ_FPE), an infinity must not produce an
  // OK report with an infinite curve, and a huge grid must not reach
  // reserve().
  PowerLawPcc pcc{-0.5, 1000.0};
  const double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    double reference_tokens;
    size_t grid_points;
  };
  for (Case bad : {Case{std::nan(""), 9}, Case{kInf, 9}, Case{-kInf, 9},
                   Case{1e308, 9},
                   Case{std::numeric_limits<double>::max(), 9},
                   Case{10.0, size_t{1} << 40},
                   Case{10.0, kMaxWhatIfGridPoints + 1}}) {
    EXPECT_EQ(ValidateWhatIfRequest(bad.reference_tokens, bad.grid_points)
                  .code(),
              StatusCode::kInvalidArgument);
    for (ModelKind model : {ModelKind::kNn, ModelKind::kXgboostSs}) {
      Result<WhatIfReport> report =
          BuildWhatIfReport(*pipeline_, job.graph, model,
                            bad.reference_tokens, bad.grid_points);
      ASSERT_FALSE(report.ok()) << ModelKindName(model);
      EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    }
    Result<WhatIfReport> from_pcc = BuildWhatIfReportFromPcc(
        pcc, ModelKind::kNn, bad.reference_tokens, bad.grid_points);
    ASSERT_FALSE(from_pcc.ok());
    EXPECT_EQ(from_pcc.status().code(), StatusCode::kInvalidArgument);
  }
  // The cap is inclusive, and small grids are raised to 3, not rejected.
  EXPECT_TRUE(ValidateWhatIfRequest(1.0, kMaxWhatIfGridPoints).ok());
  // So is the reference bound: at kMaxReferenceTokens on the largest grid
  // every model's report is ok and finite.
  for (ModelKind model : {ModelKind::kXgboostSs, ModelKind::kXgboostPl,
                          ModelKind::kNn, ModelKind::kGnn}) {
    Result<WhatIfReport> report =
        BuildWhatIfReport(*pipeline_, job.graph, model, kMaxReferenceTokens,
                          kMaxWhatIfGridPoints);
    ASSERT_TRUE(report.ok()) << ModelKindName(model);
    std::vector<WhatIfPoint> points = report.value().curve;
    points.push_back(report.value().aggressive);
    points.push_back(report.value().bounded);
    for (const WhatIfPoint& point : points) {
      EXPECT_TRUE(std::isfinite(point.tokens) &&
                  std::isfinite(point.predicted_runtime_seconds) &&
                  std::isfinite(point.predicted_slowdown))
          << ModelKindName(model) << " at " << point.tokens;
    }
    EXPECT_EQ(report.value().ToText().find("inf"), std::string::npos)
        << ModelKindName(model);
  }
  Result<WhatIfReport> small = BuildWhatIfReportFromPcc(
      pcc, ModelKind::kNn, job.default_tokens, 0);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value().curve.size(), 3u);
}

TEST_F(WhatIfFixture, RejectsNonFiniteOperatorFeatures) {
  // A NaN or infinite estimate has no meaningful log-scaled feature: every
  // model kind rejects the job instead of reporting a finite curve.
  Job job = generator_->GenerateJob(904);
  const double kInf = std::numeric_limits<double>::infinity();
  for (double OperatorFeatures::*field :
       {&OperatorFeatures::output_cardinality,
        &OperatorFeatures::leaf_input_cardinality,
        &OperatorFeatures::children_input_cardinality,
        &OperatorFeatures::average_row_length,
        &OperatorFeatures::cost_subtree, &OperatorFeatures::cost_exclusive,
        &OperatorFeatures::cost_total}) {
    for (double bad : {std::nan(""), kInf, -kInf}) {
      JobGraph graph = job.graph;
      graph.operators[0].features.*field = bad;
      EXPECT_EQ(graph.Validate().code(), StatusCode::kInvalidArgument);
      for (ModelKind model : {ModelKind::kNn, ModelKind::kGnn,
                              ModelKind::kXgboostPl, ModelKind::kXgboostSs}) {
        Result<WhatIfReport> report = BuildWhatIfReport(
            *pipeline_, graph, model, job.default_tokens);
        ASSERT_FALSE(report.ok()) << ModelKindName(model) << " " << bad;
        EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(FeatureImportanceTest, HighlightsInformativeFeature) {
  // y depends only on feature 0; importance must concentrate there.
  Rng rng(2);
  std::vector<double> features;
  std::vector<double> targets;
  for (int i = 0; i < 600; ++i) {
    double x0 = rng.Uniform(0.0, 1.0);
    double x1 = rng.Uniform(0.0, 1.0);
    double x2 = rng.Uniform(0.0, 1.0);
    features.insert(features.end(), {x0, x1, x2});
    targets.push_back(std::exp(1.0 + 2.0 * x0));
  }
  GbdtOptions options;
  options.num_trees = 40;
  GbdtRegressor model(options);
  ASSERT_TRUE(model.Train(features, 600, 3, targets).ok());
  std::vector<double> importance = model.FeatureImportance();
  ASSERT_EQ(importance.size(), 3u);
  EXPECT_GT(importance[0], 0.6);
  double sum = importance[0] + importance[1] + importance[2];
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Untrained model: all zero.
  GbdtRegressor fresh(options);
  EXPECT_TRUE(fresh.FeatureImportance().empty());
}

}  // namespace
}  // namespace tasq
