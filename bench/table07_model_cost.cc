// Reproduces Table 7: parameter counts, per-epoch training time, and
// inference time per 10,000 jobs for the NN and GNN models.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "gnn/gnn_model.h"
#include "nn/nn_model.h"
#include "tasq/evaluation.h"

namespace tasq {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int Main() {
  auto sizes = bench::BenchSizes::FromEnv();
  auto generator = bench::MakeGenerator();
  auto observed = bench::ObserveJobs(generator, 0, sizes.train_jobs, 31);
  Dataset dataset = bench::Unwrap(DatasetBuilder().Build(observed), "dataset");
  auto scalers = bench::Unwrap(FitScalers(dataset), "scalers");
  ApplyScalers(scalers, dataset);

  PccSupervision supervision;
  supervision.targets = dataset.targets;
  supervision.observed_tokens = dataset.observed_tokens;
  supervision.observed_runtime = dataset.observed_runtime;

  // ---- NN: time one epoch of training and batch inference. -------------
  NnOptions nn_options;
  nn_options.epochs = 1;
  NnPccModel nn(dataset.job_feature_dim, nn_options);
  auto start = std::chrono::steady_clock::now();
  bench::Unwrap(nn.Train(dataset.job_features, supervision), "nn train");
  double nn_epoch_seconds = SecondsSince(start);

  NnPccModel::InferenceScratch nn_scratch;
  std::vector<PowerLawPcc> nn_pccs(dataset.size());
  start = std::chrono::steady_clock::now();
  int nn_rounds = 0;
  while (SecondsSince(start) < 0.5) {
    Status predicted =
        nn.PredictBatchInto(dataset.job_features.data(), dataset.size(),
                            nn_scratch, nn_pccs.data());
    if (!predicted.ok()) {
      std::fprintf(stderr, "nn predict: %s\n", predicted.ToString().c_str());
      return 1;
    }
    ++nn_rounds;
  }
  double nn_per_10k = SecondsSince(start) /
                      (static_cast<double>(nn_rounds) *
                       static_cast<double>(dataset.size())) *
                      10000.0;

  // ---- GNN: same protocol, one graph at a time. --------------------------
  GnnOptions gnn_options;
  gnn_options.epochs = 1;
  GnnPccModel gnn(dataset.op_feature_dim, gnn_options);
  start = std::chrono::steady_clock::now();
  bench::Unwrap(gnn.Train(dataset.graphs, supervision), "gnn train");
  double gnn_epoch_seconds = SecondsSince(start);

  start = std::chrono::steady_clock::now();
  size_t gnn_predictions = 0;
  while (SecondsSince(start) < 0.5) {
    for (const GraphExample& graph : dataset.graphs) {
      bench::Unwrap(gnn.Predict(graph), "gnn predict");
      ++gnn_predictions;
    }
  }
  double gnn_per_10k =
      SecondsSince(start) / static_cast<double>(gnn_predictions) * 10000.0;

  PrintBanner(std::cout, "Table 7: parameter counts, training and inference times");
  std::printf("(timed over %zu jobs; times scale with workload size)\n\n",
              dataset.size());
  TextTable table({"Model", "Number of Parameters", "Training (s/epoch)",
                   "Inference (s/10,000 jobs)"});
  table.AddRow({"NN", Cell(nn.NumParameters()), Cell(nn_epoch_seconds, 3),
                Cell(nn_per_10k, 3)});
  table.AddRow({"GNN", Cell(gnn.NumParameters()), Cell(gnn_epoch_seconds, 3),
                Cell(gnn_per_10k, 3)});
  std::cout << table.ToString();
  std::printf("\nGNN/NN ratios: %.0fx parameters, %.0fx training, %.0fx "
              "inference\n",
              static_cast<double>(gnn.NumParameters()) /
                  static_cast<double>(nn.NumParameters()),
              gnn_epoch_seconds / nn_epoch_seconds, gnn_per_10k / nn_per_10k);
  std::cout << "Paper: NN 2,216 params, 2 s/epoch, 0.09 s per 10k jobs; GNN "
               "19,210 params, 913 s/epoch, 78 s per 10k jobs. Expected "
               "shape: GNN is much larger and much slower in both phases.\n";
  return 0;
}

}  // namespace tasq

int main() { return tasq::Main(); }
