#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stats.h"
#include "gbdt/gbdt.h"
#include "gbdt/xgb_pcc.h"

namespace tasq {
namespace {

// y = 3*x0 + noise on x in [0,1]^2 (x1 irrelevant).
void MakeLinearData(size_t n, uint64_t seed, std::vector<double>& features,
                    std::vector<double>& targets) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.Uniform(0.0, 1.0);
    double x1 = rng.Uniform(0.0, 1.0);
    features.insert(features.end(), {x0, x1});
    targets.push_back(3.0 * x0 + rng.Normal(0.0, 0.05));
  }
}

TEST(GbdtTest, FitsLinearFunctionSquaredError) {
  std::vector<double> features;
  std::vector<double> targets;
  MakeLinearData(2000, 1, features, targets);
  GbdtOptions options;
  options.objective = GbdtOptions::Objective::kSquaredError;
  options.num_trees = 80;
  GbdtRegressor model(options);
  ASSERT_TRUE(model.Train(features, 2000, 2, targets).ok());
  Rng rng(2);
  double mae = 0.0;
  int count = 200;
  for (int i = 0; i < count; ++i) {
    double x0 = rng.Uniform(0.05, 0.95);
    double x1 = rng.Uniform(0.0, 1.0);
    mae += std::fabs(model.Predict({x0, x1}) - 3.0 * x0);
  }
  EXPECT_LT(mae / count, 0.15);
}

TEST(GbdtTest, GammaObjectiveFitsPositiveSkewedTargets) {
  // y = exp(2 + 1.5*x0) * lognormal noise.
  Rng rng(3);
  std::vector<double> features;
  std::vector<double> targets;
  size_t n = 2000;
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.Uniform(0.0, 1.0);
    double x1 = rng.Uniform(0.0, 1.0);
    features.insert(features.end(), {x0, x1});
    targets.push_back(std::exp(2.0 + 1.5 * x0) * rng.LogNormal(0.0, 0.1));
  }
  GbdtOptions options;
  options.objective = GbdtOptions::Objective::kGamma;
  options.num_trees = 100;
  GbdtRegressor model(options);
  ASSERT_TRUE(model.Train(features, n, 2, targets).ok());
  // Percent error on fresh points.
  std::vector<double> predicted;
  std::vector<double> truth;
  for (int i = 0; i < 200; ++i) {
    double x0 = rng.Uniform(0.05, 0.95);
    predicted.push_back(model.Predict({x0, 0.5}));
    truth.push_back(std::exp(2.0 + 1.5 * x0));
  }
  EXPECT_LT(MedianAbsolutePercentError(predicted, truth), 10.0);
  // Predictions are positive by construction of the log link.
  for (double p : predicted) EXPECT_GT(p, 0.0);
}

TEST(GbdtTest, GammaRejectsNonPositiveTargets) {
  GbdtRegressor model(GbdtOptions{});
  std::vector<double> features = {0.1, 0.2, 0.3, 0.4};
  std::vector<double> targets = {1.0, -1.0};
  EXPECT_FALSE(model.Train(features, 2, 2, targets).ok());
}

TEST(GbdtTest, RejectsMismatchedSizes) {
  GbdtRegressor model(GbdtOptions{});
  EXPECT_FALSE(model.Train({1.0, 2.0}, 2, 2, {1.0, 2.0}).ok());
  EXPECT_FALSE(model.Train({}, 0, 0, {}).ok());
}

TEST(GbdtTest, UntrainedPredictsZero) {
  GbdtRegressor model(GbdtOptions{});
  EXPECT_DOUBLE_EQ(model.Predict({1.0}), 0.0);
  EXPECT_FALSE(model.trained());
}

TEST(GbdtTest, MinSamplesLeafLimitsTreeGrowth) {
  std::vector<double> features;
  std::vector<double> targets;
  MakeLinearData(40, 5, features, targets);
  GbdtOptions options;
  options.objective = GbdtOptions::Objective::kSquaredError;
  options.min_samples_leaf = 40;  // No split can satisfy both children.
  options.num_trees = 5;
  GbdtRegressor model(options);
  ASSERT_TRUE(model.Train(features, 40, 2, targets).ok());
  // All trees are stumps (single leaf), so prediction is constant.
  double p1 = model.Predict({0.0, 0.0});
  double p2 = model.Predict({1.0, 1.0});
  EXPECT_DOUBLE_EQ(p1, p2);
}

TEST(GbdtTest, DeterministicGivenSeed) {
  std::vector<double> features;
  std::vector<double> targets;
  MakeLinearData(300, 6, features, targets);
  GbdtOptions options;
  options.objective = GbdtOptions::Objective::kSquaredError;
  options.seed = 77;
  GbdtRegressor a(options);
  GbdtRegressor b(options);
  ASSERT_TRUE(a.Train(features, 300, 2, targets).ok());
  ASSERT_TRUE(b.Train(features, 300, 2, targets).ok());
  EXPECT_DOUBLE_EQ(a.Predict({0.3, 0.7}), b.Predict({0.3, 0.7}));
}

// ---- XGBoost-style PCC wrappers -----------------------------------------

// Training data for a power-law runtime surface: runtime = b(x) * A^(a(x)).
struct PccPointData {
  std::vector<double> features;  // N x 2.
  std::vector<double> tokens;
  std::vector<double> runtimes;
  size_t n = 0;
};

PccPointData MakePccPoints(size_t jobs, uint64_t seed) {
  PccPointData data;
  Rng rng(seed);
  for (size_t j = 0; j < jobs; ++j) {
    double f0 = rng.Uniform(0.0, 1.0);
    double f1 = rng.Uniform(0.0, 1.0);
    double a = -(0.3 + 0.5 * f0);
    double b = std::exp(5.0 + 2.0 * f1);
    for (double frac : {0.6, 0.8, 1.0, 1.2}) {
      double tokens = 40.0 * frac;
      data.features.insert(data.features.end(), {f0, f1});
      data.tokens.push_back(tokens);
      data.runtimes.push_back(b * std::pow(tokens, a) *
                              rng.LogNormal(0.0, 0.03));
      ++data.n;
    }
  }
  return data;
}

TEST(XgbRuntimeModelTest, PointPredictionAccuracy) {
  PccPointData data = MakePccPoints(400, 10);
  XgbPccOptions options;
  options.gbdt.num_trees = 150;
  XgbRuntimeModel model(options);
  ASSERT_TRUE(model.Train(data.features, data.n, 2, data.tokens,
                          data.runtimes)
                  .ok());
  Rng rng(11);
  std::vector<double> predicted;
  std::vector<double> truth;
  for (int i = 0; i < 150; ++i) {
    double f0 = rng.Uniform(0.1, 0.9);
    double f1 = rng.Uniform(0.1, 0.9);
    double tokens = rng.Uniform(28.0, 44.0);
    Result<double> p = model.PredictRuntime({f0, f1}, tokens);
    ASSERT_TRUE(p.ok());
    predicted.push_back(p.value());
    truth.push_back(std::exp(5.0 + 2.0 * f1) *
                    std::pow(tokens, -(0.3 + 0.5 * f0)));
  }
  EXPECT_LT(MedianAbsolutePercentError(predicted, truth), 20.0);
}

TEST(XgbRuntimeModelTest, CurveSpansReferenceWindow) {
  PccPointData data = MakePccPoints(100, 12);
  XgbRuntimeModel model(XgbPccOptions{});
  ASSERT_TRUE(model.Train(data.features, data.n, 2, data.tokens,
                          data.runtimes)
                  .ok());
  Result<std::vector<PccSample>> curve = model.PredictCurve({0.5, 0.5}, 40.0);
  ASSERT_TRUE(curve.ok());
  ASSERT_GE(curve.value().size(), 3u);
  EXPECT_NEAR(curve.value().front().tokens, 24.0, 1e-9);   // -40%.
  EXPECT_NEAR(curve.value().back().tokens, 56.0, 1e-9);    // +40%.
}

TEST(XgbRuntimeModelTest, PowerLawPccRecoversTrend) {
  PccPointData data = MakePccPoints(400, 13);
  XgbPccOptions options;
  options.gbdt.num_trees = 150;
  XgbRuntimeModel model(options);
  ASSERT_TRUE(model.Train(data.features, data.n, 2, data.tokens,
                          data.runtimes)
                  .ok());
  Result<PowerLawPcc> pcc = model.PredictPowerLawPcc({0.5, 0.5}, 40.0);
  ASSERT_TRUE(pcc.ok());
  // True exponent at f0=0.5 is -0.55; the refit should land in range.
  EXPECT_LT(pcc.value().a, -0.1);
  EXPECT_GT(pcc.value().a, -1.2);
}

TEST(XgbRuntimeModelTest, SmoothedCurveIsFiniteAndOrdered) {
  PccPointData data = MakePccPoints(100, 14);
  XgbRuntimeModel model(XgbPccOptions{});
  ASSERT_TRUE(model.Train(data.features, data.n, 2, data.tokens,
                          data.runtimes)
                  .ok());
  Result<SmoothingSpline> curve = model.PredictSmoothedCurve({0.4, 0.6}, 40.0);
  ASSERT_TRUE(curve.ok());
  const std::vector<double>& knots = curve.value().knots();
  for (size_t i = 1; i < knots.size(); ++i) {
    EXPECT_GT(knots[i], knots[i - 1]);
    EXPECT_TRUE(std::isfinite(curve.value().Eval(knots[i])));
  }
}

TEST(XgbRuntimeModelTest, ValidatesInput) {
  XgbRuntimeModel model(XgbPccOptions{});
  EXPECT_FALSE(model.PredictRuntime({1.0}, 10.0).ok());  // Untrained.
  PccPointData data = MakePccPoints(10, 15);
  ASSERT_TRUE(model.Train(data.features, data.n, 2, data.tokens,
                          data.runtimes)
                  .ok());
  EXPECT_FALSE(model.PredictRuntime({1.0}, 10.0).ok());   // Wrong dim.
  EXPECT_FALSE(model.PredictRuntime({1.0, 2.0}, 0.0).ok());  // Bad tokens.
  EXPECT_FALSE(model.PredictCurve({1.0, 2.0}, -5.0).ok());
  // Non-finite tokens and references are rejected before any ordered
  // comparison or log1p sees them, and so is a window reaching below 0.
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> row = {1.0, 2.0};
  for (double bad : {std::nan(""), kInf, -kInf, 1e308,
                     std::numeric_limits<double>::max()}) {
    EXPECT_EQ(model.PredictRuntime(row, bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(model.PredictCurve(row, bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(model.PredictSmoothedCurve(row, bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(model.PredictPowerLawPcc(row, bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  XgbPccOptions negative_window;
  negative_window.window_fraction = -2.0;
  XgbRuntimeModel inverted(negative_window);
  ASSERT_TRUE(
      inverted.Train(data.features, data.n, 2, data.tokens, data.runtimes)
          .ok());
  EXPECT_EQ(inverted.PredictCurve(row, 10.0).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Histogram-kernel conformance: the gather-free per-feature passes
// (gbdt_internal, driven by GrowNode) must accumulate exactly what the
// historical row-major scatter accumulated, in the same per-bin order.
// ---------------------------------------------------------------------------

TEST(GbdtHistogramTest, PackAndBuildMatchNaiveReference) {
  Rng rng(42);
  const size_t rows = 257;  // Not a multiple of any vector width.
  const size_t nbins = 16;
  std::vector<double> grad(rows);
  std::vector<double> hess(rows);
  std::vector<int32_t> col(rows);
  for (size_t r = 0; r < rows; ++r) {
    grad[r] = rng.Uniform(-3.0, 3.0);
    hess[r] = rng.Uniform(0.0, 1.0);
    col[r] = static_cast<int32_t>(rng.Uniform(0.0, 1.0) * nbins);
    if (col[r] == static_cast<int32_t>(nbins)) col[r] = nbins - 1;
  }
  // An unsorted, gappy sample subset, as subsampled tree nodes produce.
  std::vector<int> samples;
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Uniform(0.0, 1.0) < 0.7) samples.push_back(static_cast<int>(r));
  }

  gbdt_internal::HistScratch scratch;
  gbdt_internal::PackNode(samples, grad, hess, scratch);
  ASSERT_EQ(scratch.node_grad.size(), samples.size());
  ASSERT_EQ(scratch.node_hess.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(scratch.node_grad[i], grad[static_cast<size_t>(samples[i])]);
    EXPECT_EQ(scratch.node_hess[i], hess[static_cast<size_t>(samples[i])]);
  }

  gbdt_internal::BuildFeatureHistogram(col.data(), samples, nbins, scratch);
  // The naive reference is the historical build: iterate samples in
  // order, scatter into per-bin accumulators. Same iteration order means
  // the restructured build must match to the bit, not to a tolerance.
  std::vector<double> want_grad(nbins, 0.0);
  std::vector<double> want_hess(nbins, 0.0);
  std::vector<int> want_count(nbins, 0);
  for (int r : samples) {
    int32_t b = col[static_cast<size_t>(r)];
    want_grad[static_cast<size_t>(b)] += grad[static_cast<size_t>(r)];
    want_hess[static_cast<size_t>(b)] += hess[static_cast<size_t>(r)];
    ++want_count[static_cast<size_t>(b)];
  }
  ASSERT_EQ(scratch.grad_sum.size(), nbins);
  for (size_t b = 0; b < nbins; ++b) {
    EXPECT_EQ(scratch.grad_sum[b], want_grad[b]) << "bin " << b;
    EXPECT_EQ(scratch.hess_sum[b], want_hess[b]) << "bin " << b;
    EXPECT_EQ(scratch.count[b], want_count[b]) << "bin " << b;
  }
}

TEST(GbdtHistogramTest, EmptyNodeAndEmptyBinsAreWellFormed) {
  gbdt_internal::HistScratch scratch;
  std::vector<int> samples;  // Leaf with zero samples.
  std::vector<double> grad;
  std::vector<double> hess;
  gbdt_internal::PackNode(samples, grad, hess, scratch);
  EXPECT_TRUE(scratch.node_grad.empty());
  std::vector<int32_t> col;
  gbdt_internal::BuildFeatureHistogram(col.data(), samples, 4, scratch);
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(scratch.grad_sum[b], 0.0);
    EXPECT_EQ(scratch.hess_sum[b], 0.0);
    EXPECT_EQ(scratch.count[b], 0);
  }
}

}  // namespace
}  // namespace tasq
