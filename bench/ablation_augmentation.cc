// Ablation: what AREPAS data augmentation buys the XGBoost point model.
// Trains one model on the full augmented point set (60/80/100% of observed
// tokens plus over-peak points) and one on the single observed point per
// job, then compares run-time error on flighted ground truth across token
// counts.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "gbdt/xgb_pcc.h"
#include "nn/nn_model.h"

namespace tasq {

int Main() {
  auto sizes = bench::BenchSizes::FromEnv();
  auto generator = bench::MakeGenerator();
  auto train = bench::ObserveJobs(generator, 0, sizes.train_jobs, 21);

  // Augmented dataset (the pipeline default).
  Dataset augmented = bench::Unwrap(DatasetBuilder().Build(train), "dataset");
  auto scalers = bench::Unwrap(FitScalers(augmented), "scalers");
  ApplyScalers(scalers, augmented);

  // Unaugmented: a single (observed tokens, observed runtime) per job.
  DatasetOptions single_options;
  single_options.point_fractions = {1.0};
  single_options.over_peak_fractions = {};
  Dataset single =
      bench::Unwrap(DatasetBuilder(single_options).Build(train), "dataset");
  ApplyScalers(scalers, single);

  XgbPccOptions xgb_options;
  xgb_options.gbdt.num_trees = 120;
  XgbRuntimeModel with_augmentation(xgb_options);
  XgbRuntimeModel without_augmentation(xgb_options);
  Status s1 = with_augmentation.Train(
      augmented.point_features, augmented.point_size(),
      augmented.job_feature_dim, augmented.point_tokens,
      augmented.point_runtimes);
  Status s2 = without_augmentation.Train(
      single.point_features, single.point_size(), single.job_feature_dim,
      single.point_tokens, single.point_runtimes);
  if (!s1.ok() || !s2.ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }

  // Ground truth: flighted test jobs at several token counts.
  FlightConfig flight_config;
  flight_config.seed = 909;
  FlightHarness harness(flight_config);
  auto test_jobs = generator.Generate(sizes.train_jobs, sizes.flight_jobs);
  auto flighted = harness.FlightJobs(test_jobs);

  Featurizer featurizer;
  PrintBanner(std::cout, "Ablation: AREPAS training-data augmentation for XGBoost");
  TextTable table({"flight", "Median AE with augmentation",
                   "Median AE without augmentation"});
  for (size_t f = 0; f < kFlightTokenFractions.size(); ++f) {
    std::vector<double> pred_with;
    std::vector<double> pred_without;
    std::vector<double> actual;
    for (size_t j = 0; j < flighted.size(); ++j) {
      if (f >= flighted[j].flights.size()) continue;
      const FlightRecord& record = flighted[j].flights[f];
      auto features = bench::Unwrap(
          featurizer.JobLevel(test_jobs[j].graph), "featurize");
      scalers.job_scaler.Transform(features);
      auto with_pred = with_augmentation.PredictRuntime(features, record.tokens);
      auto without_pred =
          without_augmentation.PredictRuntime(features, record.tokens);
      if (!with_pred.ok() || !without_pred.ok()) continue;
      pred_with.push_back(with_pred.value());
      pred_without.push_back(without_pred.value());
      actual.push_back(record.runtime_seconds);
    }
    table.AddRow({Cell(100.0 * kFlightTokenFractions[f], 0) + "% of request",
                  Cell(MedianAbsolutePercentError(pred_with, actual), 0) + "%",
                  Cell(MedianAbsolutePercentError(pred_without, actual), 0) +
                      "%"});
  }
  std::cout << table.ToString();
  std::cout << "\nExpected shape: close near the observed allocation (the "
               "global model shares its token feature across jobs), with a "
               "gap opening at deep flights where only augmentation provides "
               "sub-allocation supervision.\n";

  // ---- NN trend targets: with AREPAS, the power-law exponent is fitted
  // from the synthesized curve; without it, a single observation per job
  // supports only a flat (a = 0) target — the data-sparsity problem the
  // simulator exists to solve.
  NnOptions nn_options;
  nn_options.epochs = 150;
  nn_options.learning_rate = 2e-3;
  nn_options.loss_form = LossForm::kLF2;
  PccSupervision with_trend;
  with_trend.targets = augmented.targets;
  with_trend.observed_tokens = augmented.observed_tokens;
  with_trend.observed_runtime = augmented.observed_runtime;
  // Flat targets: b absorbs the whole observed runtime, a stays 0.
  PccSupervision flat = with_trend;
  for (size_t i = 0; i < flat.targets.size(); ++i) {
    flat.targets[i] = PowerLawPcc{0.0, augmented.observed_runtime[i]};
  }
  NnPccModel nn_with(augmented.job_feature_dim, nn_options);
  NnPccModel nn_without(augmented.job_feature_dim, nn_options);
  bench::Unwrap(nn_with.Train(augmented.job_features, with_trend), "nn");
  bench::Unwrap(nn_without.Train(augmented.job_features, flat), "nn");

  TextTable nn_table({"flight", "NN Median AE, AREPAS targets",
                      "NN Median AE, single-point (flat) targets"});
  for (size_t f = 0; f < kFlightTokenFractions.size(); ++f) {
    std::vector<double> pred_with;
    std::vector<double> pred_without;
    std::vector<double> actual;
    for (size_t j = 0; j < flighted.size(); ++j) {
      if (f >= flighted[j].flights.size()) continue;
      const FlightRecord& record = flighted[j].flights[f];
      auto features = bench::Unwrap(
          featurizer.JobLevel(test_jobs[j].graph), "featurize");
      scalers.job_scaler.Transform(features);
      auto pcc_with = bench::Unwrap(nn_with.Predict(features), "predict");
      auto pcc_without = bench::Unwrap(nn_without.Predict(features), "predict");
      pred_with.push_back(pcc_with.EvalRunTime(record.tokens));
      pred_without.push_back(pcc_without.EvalRunTime(record.tokens));
      actual.push_back(record.runtime_seconds);
    }
    nn_table.AddRow(
        {Cell(100.0 * kFlightTokenFractions[f], 0) + "% of request",
         Cell(MedianAbsolutePercentError(pred_with, actual), 0) + "%",
         Cell(MedianAbsolutePercentError(pred_without, actual), 0) + "%"});
  }
  std::cout << "\n" << nn_table.ToString();
  std::cout << "\nExpected shape: with only one observation per job the "
               "trend target degenerates to a flat curve, so the model "
               "cannot anticipate any slowdown at lower allocations — the "
               "sparsity problem AREPAS solves (paper §3).\n";
  return 0;
}

}  // namespace tasq

int main() { return tasq::Main(); }
