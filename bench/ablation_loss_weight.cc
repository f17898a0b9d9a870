// Ablation: sweep of the LF2 runtime-penalty weight (paper §4.5 treats the
// component weights as tuned hyper-parameters). Shows the trade-off between
// curve-parameter accuracy and run-time accuracy as the weight grows.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "tasq/evaluation.h"

namespace tasq {

int Main() {
  auto sizes = bench::BenchSizes::FromEnv();
  auto generator = bench::MakeGenerator();
  auto train = bench::ObserveJobs(generator, 0, sizes.train_jobs, 21);
  auto test = bench::ObserveJobs(generator, sizes.train_jobs, sizes.test_jobs,
                                 22);
  Dataset test_dataset =
      bench::Unwrap(DatasetBuilder().Build(test), "test dataset");

  PrintBanner(std::cout, "Ablation: LF2 runtime-penalty weight sweep (NN model)");
  TextTable table({"runtime weight", "MAE (Curve Params)",
                   "Median AE (Run Time)"});
  for (double weight : {0.0, 0.25, 0.75, 1.5, 3.0, 6.0}) {
    TasqOptions options = bench::BenchTasqOptions(LossForm::kLF2);
    options.train_gnn = false;
    options.nn.weights = LossWeights{weight, 0.0};
    Tasq pipeline(options);
    Status trained = pipeline.Train(train);
    if (!trained.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   trained.ToString().c_str());
      return 1;
    }
    auto metrics = bench::Unwrap(
        EvaluateModel(pipeline, ModelKind::kNn, test_dataset), "evaluate");
    table.AddRow({Cell(weight, 2), Cell(metrics.mae_curve_params, 3),
                  Cell(metrics.median_ae_runtime_percent, 0) + "%"});
  }
  std::cout << table.ToString();
  std::cout << "\nExpected shape: weight 0 (= LF1) has the worst run-time "
               "error; moderate weights cut it sharply at little cost in "
               "parameter MAE (the paper tuned to this regime); very large "
               "weights start trading parameter accuracy away.\n";
  return 0;
}

}  // namespace tasq

int main() { return tasq::Main(); }
