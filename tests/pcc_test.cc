#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "pcc/pcc.h"

namespace tasq {
namespace {

TEST(PowerLawPccTest, EvalMatchesFormula) {
  PowerLawPcc pcc{-0.5, 1000.0};
  EXPECT_NEAR(pcc.EvalRunTime(4.0), 500.0, 1e-9);
  EXPECT_NEAR(pcc.EvalRunTime(1.0), 1000.0, 1e-9);
}

TEST(PowerLawPccTest, MonotonicityBySignConsistency) {
  EXPECT_TRUE((PowerLawPcc{-0.5, 100.0}).IsMonotoneNonIncreasing());
  EXPECT_FALSE((PowerLawPcc{0.5, 100.0}).IsMonotoneNonIncreasing());
  EXPECT_TRUE((PowerLawPcc{0.0, 100.0}).IsMonotoneNonIncreasing());
  // Same (negative) signs means increasing.
  EXPECT_FALSE((PowerLawPcc{-0.5, -100.0}).IsMonotoneNonIncreasing());
}

TEST(PowerLawPccTest, OptimalTokensFromRelativeSlope) {
  // Relative improvement per token is |a| / A; with a = -0.5 and p = 1%
  // the threshold sits at A = 50.
  PowerLawPcc pcc{-0.5, 1000.0};
  EXPECT_NEAR(pcc.OptimalTokens(1.0, 200.0), 50.0, 1e-9);
  // Clamped by the available range.
  EXPECT_NEAR(pcc.OptimalTokens(1.0, 30.0), 30.0, 1e-9);
  EXPECT_NEAR(pcc.OptimalTokens(100.0, 200.0), 1.0, 1e-9);
}

TEST(PowerLawPccTest, MinTokensForSlowdownBoundsRuntime) {
  PowerLawPcc pcc{-0.5, 1000.0};
  double reference = 100.0;
  for (double bound : {0.0, 0.05, 0.25, 1.0}) {
    double tokens = pcc.MinTokensForSlowdown(reference, bound);
    EXPECT_GE(tokens, 1.0);
    EXPECT_LE(tokens, reference);
    double slowdown =
        pcc.EvalRunTime(tokens) / pcc.EvalRunTime(reference) - 1.0;
    EXPECT_LE(slowdown, bound + 1e-9) << "bound=" << bound;
    // The bound is tight for interior solutions: one token less violates.
    if (tokens > 1.0 + 1e-9 && tokens < reference - 1e-9) {
      double less =
          pcc.EvalRunTime(tokens - 1.0) / pcc.EvalRunTime(reference) - 1.0;
      EXPECT_GT(less, bound - 1e-9);
    }
  }
  // Zero slowdown allowed: must stay at the reference for a strictly
  // decreasing curve.
  EXPECT_DOUBLE_EQ(pcc.MinTokensForSlowdown(reference, 0.0), reference);
  // Flat curve: any allocation is fine.
  EXPECT_DOUBLE_EQ((PowerLawPcc{0.0, 100.0}).MinTokensForSlowdown(50.0, 0.1),
                   1.0);
  // Non-monotone curve: refuse to reduce.
  EXPECT_DOUBLE_EQ((PowerLawPcc{0.5, 100.0}).MinTokensForSlowdown(50.0, 0.1),
                   50.0);
}

TEST(PowerLawPccTest, OptimalTokensNonMonotoneReturnsMax) {
  PowerLawPcc increasing{0.5, 1000.0};
  EXPECT_DOUBLE_EQ(increasing.OptimalTokens(1.0, 128.0), 128.0);
}

TEST(PowerLawPccTest, OptimalMarginalGainBracketsThreshold) {
  // At the returned allocation, the marginal improvement of one more token
  // is just below p%, and one token less improves by more than p%.
  PowerLawPcc pcc{-0.8, 2000.0};
  double a_star = pcc.OptimalTokens(2.0, 1000.0);
  double here = pcc.EvalRunTime(a_star);
  double more = pcc.EvalRunTime(a_star + 1.0);
  double less = pcc.EvalRunTime(a_star - 1.0);
  EXPECT_LT((here - more) / here, 0.02);
  EXPECT_GT((less - here) / less, 0.02 * 0.9);
}

TEST(FitPowerLawTest, RecoversKnownParameters) {
  PowerLawPcc truth{-0.7, 1234.0};
  std::vector<PccSample> samples;
  for (double tokens = 5.0; tokens <= 100.0; tokens += 5.0) {
    samples.push_back({tokens, truth.EvalRunTime(tokens)});
  }
  Result<PowerLawFit> fit = FitPowerLaw(samples);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().pcc.a, -0.7, 1e-9);
  EXPECT_NEAR(fit.value().pcc.b, 1234.0, 1e-6);
  EXPECT_NEAR(fit.value().log_log_r2, 1.0, 1e-12);
}

TEST(FitPowerLawTest, RobustToNoise) {
  PowerLawPcc truth{-0.5, 600.0};
  Rng rng(3);
  std::vector<PccSample> samples;
  for (double tokens = 4.0; tokens <= 120.0; tokens += 4.0) {
    samples.push_back(
        {tokens, truth.EvalRunTime(tokens) * rng.LogNormal(0.0, 0.05)});
  }
  Result<PowerLawFit> fit = FitPowerLaw(samples);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().pcc.a, -0.5, 0.05);
  EXPECT_GT(fit.value().log_log_r2, 0.95);
}

TEST(FitPowerLawTest, RejectsDegenerateSamples) {
  EXPECT_FALSE(FitPowerLaw({}).ok());
  EXPECT_FALSE(FitPowerLaw({{10.0, 100.0}}).ok());
  // Same token value twice: no slope.
  EXPECT_FALSE(FitPowerLaw({{10.0, 100.0}, {10.0, 90.0}}).ok());
  // Non-positive values are skipped.
  EXPECT_FALSE(FitPowerLaw({{-10.0, 100.0}, {0.0, 90.0}, {5.0, 0.0}}).ok());
}

TEST(FitPowerLawTest, IgnoresNonFiniteAndNonPositiveSamples) {
  // A clean power law with degenerate observations interleaved: the fit
  // must equal the fit on the clean subset exactly, because the bad rows
  // never enter the log-log regression.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  PowerLawPcc truth{-0.6, 500.0};
  std::vector<PccSample> clean;
  for (double tokens = 2.0; tokens <= 64.0; tokens *= 2.0) {
    clean.push_back({tokens, truth.EvalRunTime(tokens)});
  }
  std::vector<PccSample> dirty = clean;
  dirty.insert(dirty.begin(), {kNan, 100.0});
  dirty.insert(dirty.begin() + 3, {10.0, kNan});
  dirty.push_back({kInf, 50.0});
  dirty.push_back({12.0, -3.0});
  dirty.push_back({0.0, 40.0});
  Result<PowerLawFit> clean_fit = FitPowerLaw(clean);
  Result<PowerLawFit> dirty_fit = FitPowerLaw(dirty);
  ASSERT_TRUE(clean_fit.ok());
  ASSERT_TRUE(dirty_fit.ok());
  EXPECT_DOUBLE_EQ(dirty_fit.value().pcc.a, clean_fit.value().pcc.a);
  EXPECT_DOUBLE_EQ(dirty_fit.value().pcc.b, clean_fit.value().pcc.b);
  EXPECT_DOUBLE_EQ(dirty_fit.value().log_log_r2,
                   clean_fit.value().log_log_r2);
}

TEST(FitPowerLawTest, AllNonFiniteSamplesIsTypedErrorNotCrash) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  Result<PowerLawFit> fit = FitPowerLaw(
      {{kNan, 1.0}, {1.0, kNan}, {kInf, 2.0}, {3.0, -kInf}});
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
}

TEST(MonotoneCheckTest, DetectsIncreaseBeyondTolerance) {
  std::vector<PccSample> increasing = {{10.0, 100.0}, {20.0, 115.0}};
  EXPECT_FALSE(IsCurveMonotoneNonIncreasing(increasing));
  EXPECT_FALSE(IsCurveMonotoneNonIncreasing(increasing, 10.0));
  EXPECT_TRUE(IsCurveMonotoneNonIncreasing(increasing, 20.0));
}

TEST(MonotoneCheckTest, SortsByTokensFirst) {
  // Unsorted but monotone non-increasing in tokens.
  std::vector<PccSample> samples = {{30.0, 50.0}, {10.0, 100.0}, {20.0, 70.0}};
  EXPECT_TRUE(IsCurveMonotoneNonIncreasing(samples));
}

TEST(OptimalTokensFromSamplesTest, AgreesWithParametricAnswer) {
  // On a densely sampled power law, the discrete walk lands near the
  // closed-form threshold A* = |a| * 100 / p.
  PowerLawPcc pcc{-0.5, 2000.0};
  std::vector<PccSample> samples;
  for (double tokens = 1.0; tokens <= 200.0; tokens += 1.0) {
    samples.push_back({tokens, pcc.EvalRunTime(tokens)});
  }
  Result<double> tokens = OptimalTokensFromSamples(samples, 1.0);
  ASSERT_TRUE(tokens.ok());
  EXPECT_NEAR(tokens.value(), pcc.OptimalTokens(1.0, 200.0), 2.0);
}

TEST(OptimalTokensFromSamplesTest, FlatCurveWalksToMinimum) {
  std::vector<PccSample> samples = {
      {10.0, 100.0}, {20.0, 100.0}, {40.0, 100.0}};
  Result<double> tokens = OptimalTokensFromSamples(samples, 1.0);
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ(tokens.value(), 10.0);
}

TEST(OptimalTokensFromSamplesTest, SteepCurveStaysAtMaximum) {
  // Dropping from 40 to 20 tokens doubles run time: far above any sane
  // threshold, so the walk stays at the top.
  std::vector<PccSample> samples = {
      {20.0, 200.0}, {40.0, 100.0}};
  Result<double> tokens = OptimalTokensFromSamples(samples, 1.0);
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ(tokens.value(), 40.0);
}

TEST(OptimalTokensFromSamplesTest, NonMonotoneSegmentStopsWalk) {
  // Runtime *improves* with fewer tokens between 20 and 30 — noise; the
  // walk refuses to descend past it.
  std::vector<PccSample> samples = {
      {10.0, 100.5}, {20.0, 90.0}, {30.0, 100.0}, {40.0, 99.9}};
  Result<double> tokens = OptimalTokensFromSamples(samples, 1.0);
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ(tokens.value(), 30.0);
}

TEST(OptimalTokensFromSamplesTest, ValidatesInput) {
  EXPECT_FALSE(OptimalTokensFromSamples({}, 1.0).ok());
  EXPECT_FALSE(OptimalTokensFromSamples({{10.0, 1.0}}, 1.0).ok());
  EXPECT_FALSE(
      OptimalTokensFromSamples({{10.0, 1.0}, {20.0, 1.0}}, 0.0).ok());
  // Non-positive samples are discarded.
  EXPECT_FALSE(
      OptimalTokensFromSamples({{-1.0, 5.0}, {10.0, 0.0}}, 1.0).ok());
}

TEST(OptimalTokensFromSamplesTest, IgnoresNonFiniteSamples) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  // The finite subset is a flat curve whose walk ends at 10 tokens; the
  // NaN/inf rows must not perturb the answer or crash the walk.
  std::vector<PccSample> samples = {
      {kNan, 100.0}, {10.0, 100.0}, {15.0, kInf},
      {20.0, 100.0}, {kInf, 1.0},   {40.0, 100.0}};
  Result<double> tokens = OptimalTokensFromSamples(samples, 1.0);
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ(tokens.value(), 10.0);
  // All rows degenerate: typed error, not a crash.
  EXPECT_FALSE(
      OptimalTokensFromSamples({{kNan, 1.0}, {2.0, kNan}}, 1.0).ok());
}

TEST(FindElbowTest, LocatesKneeOfConvexCurve) {
  PowerLawPcc pcc{-1.0, 2000.0};
  std::vector<PccSample> samples;
  for (double t = 5.0; t <= 200.0; t += 5.0) {
    samples.push_back({t, pcc.EvalRunTime(t)});
  }
  Result<double> elbow = FindElbowTokens(samples);
  ASSERT_TRUE(elbow.ok());
  // The knee of 1/x over [5, 200] sits well inside the range.
  EXPECT_GT(elbow.value(), 10.0);
  EXPECT_LT(elbow.value(), 80.0);
}

TEST(FindElbowTest, RejectsDegenerateCurves) {
  EXPECT_FALSE(FindElbowTokens({{1.0, 5.0}, {2.0, 4.0}}).ok());
  // Flat curve: no runtime range.
  EXPECT_FALSE(
      FindElbowTokens({{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}}).ok());
  // Concave-up in the wrong direction (linear): no strict elbow.
  EXPECT_FALSE(
      FindElbowTokens({{1.0, 30.0}, {2.0, 20.0}, {3.0, 10.0}}).ok());
}

TEST(SmoothingSplineTest, LambdaZeroInterpolates) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y = {5.0, 1.0, 4.0, 2.0};
  Result<SmoothingSpline> spline = SmoothingSpline::Fit(x, y, 0.0);
  ASSERT_TRUE(spline.ok());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(spline.value().Eval(x[i]), y[i], 1e-9);
  }
}

TEST(SmoothingSplineTest, LargeLambdaApproachesLeastSquaresLine) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> y = {2.1, 3.9, 6.2, 7.8, 10.1};  // Roughly 2x.
  Result<SmoothingSpline> spline = SmoothingSpline::Fit(x, y, 1e9);
  ASSERT_TRUE(spline.ok());
  // The limit is the least-squares line through the data.
  for (double t = 1.0; t <= 5.0; t += 0.5) {
    EXPECT_NEAR(spline.value().Eval(t), 0.02 + 2.0 * t, 0.15);
  }
}

TEST(SmoothingSplineTest, SmoothsNoiseTowardTrend) {
  // Averaged over noise realizations, a small-lambda spline must sit closer
  // to the true 100/t curve than the noisy samples themselves.
  double mse_smooth = 0.0;
  double mse_raw = 0.0;
  int count = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    std::vector<double> x;
    std::vector<double> y;
    for (double t = 1.0; t <= 30.0; t += 1.0) {
      x.push_back(t);
      y.push_back(100.0 / t + rng.Normal(0.0, 3.0));
    }
    Result<SmoothingSpline> spline = SmoothingSpline::Fit(x, y, 0.05);
    ASSERT_TRUE(spline.ok());
    for (size_t i = 0; i < x.size(); ++i) {
      double truth = 100.0 / x[i];
      double err = spline.value().Eval(x[i]) - truth;
      mse_smooth += err * err;
      mse_raw += (y[i] - truth) * (y[i] - truth);
      ++count;
    }
  }
  EXPECT_LT(mse_smooth / count, mse_raw / count);
}

TEST(SmoothingSplineTest, LinearExtrapolationOutsideRange) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {2.0, 4.0, 6.0};
  Result<SmoothingSpline> spline = SmoothingSpline::Fit(x, y, 0.0);
  ASSERT_TRUE(spline.ok());
  EXPECT_NEAR(spline.value().Eval(0.0), 0.0, 1e-9);
  EXPECT_NEAR(spline.value().Eval(5.0), 10.0, 1e-9);
}

TEST(SmoothingSplineTest, RejectsBadInput) {
  EXPECT_FALSE(SmoothingSpline::Fit({1.0, 2.0}, {1.0, 2.0}, 0.0).ok());
  EXPECT_FALSE(
      SmoothingSpline::Fit({1.0, 1.0, 2.0}, {1.0, 2.0, 3.0}, 0.0).ok());
  EXPECT_FALSE(
      SmoothingSpline::Fit({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}, -1.0).ok());
  EXPECT_FALSE(SmoothingSpline::Fit({1.0, 2.0, 3.0}, {1.0, 2.0}, 0.0).ok());
}

}  // namespace
}  // namespace tasq
