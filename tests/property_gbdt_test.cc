// Property-based tests of the gradient-boosted tree regressor across seeds
// and objectives.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "gbdt/gbdt.h"

namespace tasq {
namespace {

double MeanAbsoluteError(const std::vector<double>& predicted,
                         const std::vector<double>& actual) {
  double acc = 0.0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    acc += std::fabs(predicted[i] - actual[i]);
  }
  return acc / static_cast<double>(predicted.size());
}

struct DataSet {
  std::vector<double> features;
  std::vector<double> targets;
  size_t rows = 0;
  size_t dim = 3;
};

DataSet MakeData(size_t n, uint64_t seed, bool positive_targets) {
  DataSet data;
  data.rows = n;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.Uniform(0.0, 1.0);
    double x1 = rng.Uniform(0.0, 1.0);
    double x2 = rng.Uniform(0.0, 1.0);
    data.features.insert(data.features.end(), {x0, x1, x2});
    double y = 2.0 * x0 - x1 + 0.5 * std::sin(6.0 * x2);
    data.targets.push_back(positive_targets ? std::exp(y) : y);
  }
  return data;
}

class GbdtPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GbdtPropertyTest, PredictionsFiniteAndBoundedByTargetRange) {
  for (auto objective : {GbdtOptions::Objective::kSquaredError,
                         GbdtOptions::Objective::kGamma}) {
    bool positive = objective == GbdtOptions::Objective::kGamma;
    DataSet data = MakeData(500, GetParam(), positive);
    GbdtOptions options;
    options.objective = objective;
    options.num_trees = 40;
    options.seed = GetParam();
    GbdtRegressor model(options);
    ASSERT_TRUE(model.Train(data.features, data.rows, data.dim, data.targets)
                    .ok());
    double lo = *std::min_element(data.targets.begin(), data.targets.end());
    double hi = *std::max_element(data.targets.begin(), data.targets.end());
    double margin = (hi - lo) * 0.5 + 1e-6;
    Rng rng(GetParam() ^ 0xF00);
    for (int i = 0; i < 100; ++i) {
      std::vector<double> row = {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0),
                                 rng.Uniform(0.0, 1.0)};
      double p = model.Predict(row);
      EXPECT_TRUE(std::isfinite(p));
      // Trees average training targets, so predictions stay near range.
      EXPECT_GT(p, lo - margin);
      EXPECT_LT(p, hi + margin);
      if (positive) {
        EXPECT_GT(p, 0.0);
      }
    }
  }
}

TEST_P(GbdtPropertyTest, MoreTreesNeverHurtTrainingFit) {
  DataSet data = MakeData(400, GetParam(), false);
  GbdtOptions options;
  options.objective = GbdtOptions::Objective::kSquaredError;
  options.subsample = 1.0;  // Deterministic boosting path.
  options.seed = GetParam();
  double previous_mse = 1e300;
  for (int trees : {5, 20, 80}) {
    options.num_trees = trees;
    GbdtRegressor model(options);
    ASSERT_TRUE(model.Train(data.features, data.rows, data.dim, data.targets)
                    .ok());
    double mse = 0.0;
    for (size_t i = 0; i < data.rows; ++i) {
      double err =
          model.Predict(&data.features[i * data.dim]) - data.targets[i];
      mse += err * err;
    }
    mse /= static_cast<double>(data.rows);
    EXPECT_LE(mse, previous_mse + 1e-9) << "trees=" << trees;
    previous_mse = mse;
  }
}

TEST_P(GbdtPropertyTest, TrainingFitBeatsConstantBaseline) {
  DataSet data = MakeData(400, GetParam(), true);
  GbdtOptions options;
  options.num_trees = 60;
  options.seed = GetParam();
  GbdtRegressor model(options);
  ASSERT_TRUE(
      model.Train(data.features, data.rows, data.dim, data.targets).ok());
  std::vector<double> predictions;
  for (size_t i = 0; i < data.rows; ++i) {
    predictions.push_back(model.Predict(&data.features[i * data.dim]));
  }
  double model_err = MeanAbsoluteError(predictions, data.targets);
  std::vector<double> constant(data.rows, Mean(data.targets));
  double baseline_err = MeanAbsoluteError(constant, data.targets);
  EXPECT_LT(model_err, baseline_err * 0.6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbdtPropertyTest,
                         ::testing::Values(3, 17, 59, 211));

}  // namespace
}  // namespace tasq
