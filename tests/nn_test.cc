#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "nn/nn_model.h"
#include "nn/pcc_loss.h"

namespace tasq {
namespace {

TEST(PccTargetScalingTest, FitAndRoundTrip) {
  std::vector<PowerLawPcc> targets = {
      {-0.2, 100.0}, {-0.5, 500.0}, {-0.9, 2000.0}, {-0.4, 50.0}};
  Result<PccTargetScaling> scaling = PccTargetScaling::Fit(targets);
  ASSERT_TRUE(scaling.ok());
  for (const PowerLawPcc& t : targets) {
    auto [t1, t2] = scaling.value().ToScaled(t);
    PowerLawPcc back = scaling.value().FromScaled(t1, t2);
    EXPECT_NEAR(back.a, t.a, 1e-9);
    EXPECT_NEAR(back.b, t.b, 1e-6);
  }
}

TEST(PccTargetScalingTest, FromScaledAlwaysMonotone) {
  PccTargetScaling scaling(0.3, 1.5);
  // Any real (p1, p2) must map to a monotone non-increasing curve.
  for (double p1 : {-3.0, -0.1, 0.0, 0.4, 7.0}) {
    for (double p2 : {-5.0, 0.0, 4.0}) {
      PowerLawPcc pcc = scaling.FromScaled(p1, p2);
      EXPECT_TRUE(pcc.IsMonotoneNonIncreasing());
      EXPECT_GT(pcc.b, 0.0);
      EXPECT_LE(pcc.a, 0.0);
    }
  }
}

TEST(PccTargetScalingTest, RejectsEmptyTargets) {
  EXPECT_FALSE(PccTargetScaling::Fit({}).ok());
}

TEST(PccTargetScalingTest, RejectsNonFiniteTargets) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      PccTargetScaling::Fit({{-0.5, 100.0}, {kNan, 200.0}}).ok());
  EXPECT_FALSE(
      PccTargetScaling::Fit({{-0.5, 100.0}, {-0.4, kNan}}).ok());
  EXPECT_FALSE(
      PccTargetScaling::Fit({{-kInf, 100.0}, {-0.4, 200.0}}).ok());
  EXPECT_FALSE(
      PccTargetScaling::Fit({{-0.5, kInf}, {-0.4, 200.0}}).ok());
}

TEST(PccTargetScalingTest, DegenerateTargetsGetFloorScales) {
  // Identical targets have zero variance; scales must stay positive.
  std::vector<PowerLawPcc> targets(5, PowerLawPcc{-0.5, 100.0});
  Result<PccTargetScaling> scaling = PccTargetScaling::Fit(targets);
  ASSERT_TRUE(scaling.ok());
  EXPECT_GT(scaling.value().s1(), 0.0);
  EXPECT_GT(scaling.value().s2(), 0.0);
}

TEST(DefaultLossWeightsTest, FormsAreOrdered) {
  LossWeights lf1 = DefaultLossWeights(LossForm::kLF1);
  LossWeights lf2 = DefaultLossWeights(LossForm::kLF2);
  LossWeights lf3 = DefaultLossWeights(LossForm::kLF3);
  EXPECT_EQ(lf1.runtime_percent, 0.0);
  EXPECT_EQ(lf1.transfer_percent, 0.0);
  EXPECT_GT(lf2.runtime_percent, 0.0);
  EXPECT_EQ(lf2.transfer_percent, 0.0);
  EXPECT_GT(lf3.transfer_percent, 0.0);
}

TEST(BuildPccLossTest, Lf1MatchesHandComputation) {
  PccTargetScaling scaling(1.0, 1.0);
  Var p1 = MakeConstant(Matrix::ColumnVector({1.0}));
  Var p2 = MakeConstant(Matrix::ColumnVector({2.0}));
  PccLossBatch batch;
  batch.scaled_targets = {1.5, 1.0};  // |1-1.5| = .5, |2-1| = 1 -> 0.5*(1.5)/1.
  Result<Var> loss =
      BuildPccLoss(p1, p2, scaling, batch, DefaultLossWeights(LossForm::kLF1));
  ASSERT_TRUE(loss.ok());
  EXPECT_NEAR(loss.value()->value.At(0, 0), 0.5 * (0.5 + 1.0), 1e-12);
}

TEST(BuildPccLossTest, Lf2RuntimeTermIsExact) {
  // With s1 = s2 = 1, p1 = 0.5, p2 = log(100), tokens = e^2:
  // runtime = exp(log(100) - 0.5 * 2) = 100/e.
  PccTargetScaling scaling(1.0, 1.0);
  double log_b = std::log(100.0);
  Var p1 = MakeConstant(Matrix::ColumnVector({0.5}));
  Var p2 = MakeConstant(Matrix::ColumnVector({log_b}));
  PccLossBatch batch;
  batch.scaled_targets = {0.5, log_b};  // Param term = 0.
  batch.observed_tokens = {std::exp(2.0)};
  double expected_runtime = 100.0 / std::exp(1.0);
  batch.observed_runtime = {expected_runtime};
  LossWeights weights{1.0, 0.0};
  Result<Var> loss = BuildPccLoss(p1, p2, scaling, batch, weights);
  ASSERT_TRUE(loss.ok());
  EXPECT_NEAR(loss.value()->value.At(0, 0), 0.0, 1e-9);
  // Shifting the observed runtime by 10% yields ~0.0909 percent-fraction.
  batch.observed_runtime = {expected_runtime * 1.1};
  Result<Var> shifted = BuildPccLoss(p1, p2, scaling, batch, weights);
  ASSERT_TRUE(shifted.ok());
  EXPECT_NEAR(shifted.value()->value.At(0, 0), 0.1 / 1.1, 1e-9);
}

TEST(BuildPccLossTest, ValidatesInput) {
  PccTargetScaling scaling(1.0, 1.0);
  Var p1 = MakeConstant(Matrix::ColumnVector({1.0}));
  Var p2 = MakeConstant(Matrix::ColumnVector({1.0}));
  PccLossBatch batch;  // Missing targets.
  EXPECT_FALSE(
      BuildPccLoss(p1, p2, scaling, batch, DefaultLossWeights(LossForm::kLF1))
          .ok());
  batch.scaled_targets = {1.0, 1.0};
  // LF2 without observed tokens.
  EXPECT_FALSE(
      BuildPccLoss(p1, p2, scaling, batch, DefaultLossWeights(LossForm::kLF2))
          .ok());
  batch.observed_tokens = {10.0};
  batch.observed_runtime = {0.0};  // Non-positive reference.
  EXPECT_FALSE(
      BuildPccLoss(p1, p2, scaling, batch, DefaultLossWeights(LossForm::kLF2))
          .ok());
}

TEST(BuildPccLossTest, RejectsNonFiniteSupervision) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  PccTargetScaling scaling(1.0, 1.0);
  Var p1 = MakeConstant(Matrix::ColumnVector({1.0}));
  Var p2 = MakeConstant(Matrix::ColumnVector({1.0}));
  PccLossBatch batch;
  batch.scaled_targets = {1.0, 1.0};
  LossWeights weights = DefaultLossWeights(LossForm::kLF2);
  batch.observed_tokens = {kNan};
  batch.observed_runtime = {5.0};
  EXPECT_FALSE(BuildPccLoss(p1, p2, scaling, batch, weights).ok());
  batch.observed_tokens = {10.0};
  batch.observed_runtime = {kInf};
  EXPECT_FALSE(BuildPccLoss(p1, p2, scaling, batch, weights).ok());
  batch.observed_runtime = {kNan};
  EXPECT_FALSE(BuildPccLoss(p1, p2, scaling, batch, weights).ok());
}

// Synthetic PCC regression task: features determine (a, b) through a known
// relationship; the NN must learn it.
struct SyntheticSet {
  std::vector<double> features;
  PccSupervision supervision;
  size_t dim = 3;
};

SyntheticSet MakeSynthetic(size_t n, uint64_t seed) {
  SyntheticSet set;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double f0 = rng.Uniform(-1.0, 1.0);
    double f1 = rng.Uniform(-1.0, 1.0);
    double f2 = rng.Uniform(-1.0, 1.0);
    set.features.insert(set.features.end(), {f0, f1, f2});
    PowerLawPcc target;
    target.a = -(0.5 + 0.3 * f0 + 0.15 * f1);  // In [-0.95, -0.05].
    target.b = std::exp(6.0 + 1.2 * f2);
    set.supervision.targets.push_back(target);
    double tokens = std::exp(rng.Uniform(2.0, 5.0));
    set.supervision.observed_tokens.push_back(tokens);
    set.supervision.observed_runtime.push_back(target.EvalRunTime(tokens));
  }
  return set;
}

TEST(NnPccModelTest, LearnsSyntheticRelationship) {
  SyntheticSet train = MakeSynthetic(600, 1);
  NnOptions options;
  options.epochs = 120;
  options.loss_form = LossForm::kLF2;
  options.seed = 7;
  NnPccModel model(train.dim, options);
  Result<double> final_loss = model.Train(train.features, train.supervision);
  ASSERT_TRUE(final_loss.ok());

  SyntheticSet test = MakeSynthetic(100, 2);
  std::vector<double> a_err;
  for (size_t i = 0; i < 100; ++i) {
    std::vector<double> row(test.features.begin() + static_cast<long>(3 * i),
                            test.features.begin() + static_cast<long>(3 * i + 3));
    Result<PowerLawPcc> pcc = model.Predict(row);
    ASSERT_TRUE(pcc.ok());
    EXPECT_TRUE(pcc.value().IsMonotoneNonIncreasing());
    a_err.push_back(std::fabs(pcc.value().a - test.supervision.targets[i].a));
  }
  double mean_a_err = 0.0;
  for (double e : a_err) mean_a_err += e;
  mean_a_err /= static_cast<double>(a_err.size());
  // Exponent range spans ~0.9; a useful model gets well under 0.15 mean
  // error (predicting the mean exponent would give ~0.19).
  EXPECT_LT(mean_a_err, 0.15);
}

// NnOptions::weights replaces the loss form's default weights: set to
// that default it trains the same bytes as leaving it unset, and another
// runtime weight trains different ones.
TEST(NnPccModelTest, LossWeightOverrideReachesTraining) {
  SyntheticSet train = MakeSynthetic(120, 4);
  auto trained_archive = [&](std::optional<LossWeights> weights) {
    NnOptions options;
    options.epochs = 5;
    options.loss_form = LossForm::kLF2;
    options.weights = weights;
    NnPccModel model(train.dim, options);
    EXPECT_TRUE(model.Train(train.features, train.supervision).ok());
    std::stringstream stream;
    TextArchiveWriter writer(stream);
    model.Serialize(writer);
    return stream.str();
  };
  std::string unset = trained_archive(std::nullopt);
  EXPECT_EQ(trained_archive(DefaultLossWeights(LossForm::kLF2)), unset);
  EXPECT_NE(trained_archive(LossWeights{2.0, 0.0}), unset);
}

TEST(NnPccModelTest, PredictionsAlwaysMonotoneEvenUntrainedWeights) {
  SyntheticSet train = MakeSynthetic(50, 3);
  NnOptions options;
  options.epochs = 1;  // Barely trained: constraint must still hold.
  NnPccModel model(train.dim, options);
  ASSERT_TRUE(model.Train(train.features, train.supervision).ok());
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> row = {rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0),
                               rng.Uniform(-3.0, 3.0)};
    Result<PowerLawPcc> pcc = model.Predict(row);
    ASSERT_TRUE(pcc.ok());
    EXPECT_TRUE(pcc.value().IsMonotoneNonIncreasing());
  }
}

TEST(NnPccModelTest, ParameterCountMatchesArchitecture) {
  NnOptions options;
  options.hidden_sizes = {32, 16};
  NnPccModel model(51, options);
  // 51*32+32 + 32*16+16 + (16+1)*2 heads.
  EXPECT_EQ(model.NumParameters(), 51 * 32 + 32 + 32 * 16 + 16 + 2 * 17);
}

TEST(NnPccModelTest, RejectsBadInput) {
  NnPccModel model(3, NnOptions{});
  EXPECT_FALSE(model.Predict({1.0, 2.0, 3.0}).ok());  // Untrained.
  SyntheticSet train = MakeSynthetic(10, 4);
  std::vector<double> wrong_size(train.features.begin(),
                                 train.features.end() - 1);
  EXPECT_FALSE(model.Train(wrong_size, train.supervision).ok());
  // LF3 without xgb predictions.
  NnOptions lf3;
  lf3.loss_form = LossForm::kLF3;
  NnPccModel lf3_model(3, lf3);
  EXPECT_FALSE(lf3_model.Train(train.features, train.supervision).ok());
}

TEST(NnPccModelTest, EarlyStoppingTrainsAndGeneralizes) {
  SyntheticSet train = MakeSynthetic(400, 8);
  NnOptions options;
  options.epochs = 300;
  options.validation_fraction = 0.2;
  options.early_stopping_patience = 12;
  options.seed = 3;
  NnPccModel model(train.dim, options);
  Result<double> best_val = model.Train(train.features, train.supervision);
  ASSERT_TRUE(best_val.ok());
  EXPECT_GT(best_val.value(), 0.0);
  SyntheticSet test = MakeSynthetic(80, 9);
  double mean_a_err = 0.0;
  for (size_t i = 0; i < 80; ++i) {
    std::vector<double> row(test.features.begin() + static_cast<long>(3 * i),
                            test.features.begin() + static_cast<long>(3 * i + 3));
    Result<PowerLawPcc> pcc = model.Predict(row);
    ASSERT_TRUE(pcc.ok());
    mean_a_err += std::fabs(pcc.value().a - test.supervision.targets[i].a);
  }
  EXPECT_LT(mean_a_err / 80.0, 0.15);
}

TEST(NnPccModelTest, EarlyStoppingDeterministic) {
  SyntheticSet train = MakeSynthetic(100, 10);
  NnOptions options;
  options.epochs = 60;
  options.validation_fraction = 0.25;
  options.seed = 4;
  NnPccModel a(train.dim, options);
  NnPccModel b(train.dim, options);
  double loss_a = a.Train(train.features, train.supervision).value_or(-1);
  double loss_b = b.Train(train.features, train.supervision).value_or(-2);
  EXPECT_DOUBLE_EQ(loss_a, loss_b);
  std::vector<double> row = {0.3, -0.2, 0.7};
  EXPECT_DOUBLE_EQ(a.Predict(row).value().a, b.Predict(row).value().a);
}

TEST(NnPccModelTest, Lf3TrainsWithTransferPredictions) {
  SyntheticSet train = MakeSynthetic(100, 5);
  // Pretend XGBoost predictions: the true runtime with mild distortion.
  for (size_t i = 0; i < train.supervision.size(); ++i) {
    train.supervision.xgb_runtime.push_back(
        train.supervision.observed_runtime[i] * 1.05);
  }
  NnOptions options;
  options.loss_form = LossForm::kLF3;
  options.epochs = 10;
  NnPccModel model(train.dim, options);
  EXPECT_TRUE(model.Train(train.features, train.supervision).ok());
}

}  // namespace
}  // namespace tasq
