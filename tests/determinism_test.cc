// Determinism golden tests: training the NN, GBDT and GNN models twice from
// the same seed, options, and data must yield byte-identical Serialize()
// streams. This pins down every source of nondeterminism that would break
// reproducible experiments — unordered-container iteration feeding into
// arithmetic, RNG reseeding from entropy, and accumulation-order drift.
// The suite name ("DeterminismTest") is part of the TSan ctest filter in
// scripts/check.sh and CI, so both runs also race-check the training path.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/text_io.h"
#include "gbdt/gbdt.h"
#include "gnn/gnn_model.h"
#include "nn/nn_model.h"
#include "nn/pcc_loss.h"

namespace tasq {
namespace {

// Synthetic PCC supervision with a known feature->(a, b) relationship;
// only repeatability matters here, not accuracy, so it stays tiny.
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
    target.a = -(0.5 + 0.3 * f0 + 0.15 * f1);
    target.b = std::exp(6.0 + 1.2 * f2);
    set.supervision.targets.push_back(target);
    double tokens = std::exp(rng.Uniform(2.0, 5.0));
    set.supervision.observed_tokens.push_back(tokens);
    set.supervision.observed_runtime.push_back(target.EvalRunTime(tokens));
  }
  return set;
}

std::string TrainNnAndSerialize(const SyntheticSet& data) {
  NnOptions options;
  options.epochs = 25;
  options.hidden_sizes = {16, 8};
  options.seed = 11;
  NnPccModel model(data.dim, options);
  Result<double> loss = model.Train(data.features, data.supervision);
  EXPECT_TRUE(loss.ok()) << loss.status().ToString();
  std::stringstream stream;
  TextArchiveWriter writer(stream);
  model.Serialize(writer);
  return stream.str();
}

TEST(DeterminismTest, NnTrainingIsBitReproducibleFromSeed) {
  SyntheticSet data = MakeSynthetic(200, 4);
  std::string first = TrainNnAndSerialize(data);
  std::string second = TrainNnAndSerialize(data);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second)
      << "NN training from a fixed seed produced different weights";
}

std::string TrainGbdtAndSerialize(const std::vector<double>& features,
                                  size_t rows, size_t dim,
                                  const std::vector<double>& targets) {
  GbdtOptions options;
  options.num_trees = 40;
  options.max_depth = 4;
  options.subsample = 0.7;  // < 1 so the per-tree row sampler RNG is live.
  options.seed = 29;
  GbdtRegressor model(options);
  Status status = model.Train(features, rows, dim, targets);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::stringstream stream;
  TextArchiveWriter writer(stream);
  model.Serialize(writer);
  return stream.str();
}

TEST(DeterminismTest, GbdtTrainingIsBitReproducibleFromSeed) {
  const size_t rows = 300;
  const size_t dim = 4;
  Rng rng(8);
  std::vector<double> features;
  std::vector<double> targets;
  features.reserve(rows * dim);
  for (size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      double v = rng.Uniform(0.0, 1.0);
      features.push_back(v);
      sum += v;
    }
    targets.push_back(std::exp(sum) + 0.1 * rng.Uniform(0.0, 1.0));
  }
  std::string first = TrainGbdtAndSerialize(features, rows, dim, targets);
  std::string second = TrainGbdtAndSerialize(features, rows, dim, targets);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second)
      << "GBDT training from a fixed seed produced different trees";
}

// Random DAG-shaped graphs (a chain plus random skip edges) with the
// GCN-normalized adjacency, and the same PCC supervision shape as above.
struct SyntheticGraphs {
  std::vector<GraphExample> graphs;
  PccSupervision supervision;
  size_t dim = 3;
};

SyntheticGraphs MakeSyntheticGraphs(size_t count, uint64_t seed) {
  SyntheticGraphs set;
  Rng rng(seed);
  for (size_t g = 0; g < count; ++g) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 12));
    GraphExample graph;
    graph.num_nodes = n;
    double f0 = 0.0;
    for (size_t i = 0; i < n * set.dim; ++i) {
      graph.node_features.push_back(rng.Uniform(-1.0, 1.0));
      if (i % set.dim == 0) f0 += graph.node_features.back();
    }
    std::vector<double> adjacency(n * n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      adjacency[i * n + i] = 1.0;
      for (size_t j = 0; j < i; ++j) {
        if (j + 1 == i || rng.Bernoulli(0.2)) {
          adjacency[i * n + j] = 1.0;
          adjacency[j * n + i] = 1.0;
        }
      }
    }
    std::vector<double> inv_sqrt(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double degree = 0.0;
      for (size_t j = 0; j < n; ++j) degree += adjacency[i * n + j];
      inv_sqrt[i] = 1.0 / std::sqrt(degree);
    }
    for (size_t i = 0; i < n * n; ++i) {
      graph.norm_adjacency.push_back(adjacency[i] * inv_sqrt[i / n] *
                                     inv_sqrt[i % n]);
    }
    set.graphs.push_back(std::move(graph));
    PowerLawPcc target;
    target.a = -(0.5 + 0.3 * f0 / static_cast<double>(n));
    target.b = std::exp(5.0 + 0.1 * static_cast<double>(n));
    set.supervision.targets.push_back(target);
    double tokens = std::exp(rng.Uniform(2.0, 5.0));
    set.supervision.observed_tokens.push_back(tokens);
    set.supervision.observed_runtime.push_back(target.EvalRunTime(tokens));
  }
  return set;
}

std::string TrainGnnAndSerialize(const SyntheticGraphs& data) {
  GnnOptions options;
  options.epochs = 6;
  options.gcn_hidden = {8, 8};
  options.head_hidden = {8};
  options.batch_size = 8;
  options.validation_fraction = 0.2;  // The early-stopping path is live.
  options.seed = 13;
  GnnPccModel model(data.dim, options);
  Result<double> loss = model.Train(data.graphs, data.supervision);
  EXPECT_TRUE(loss.ok()) << loss.status().ToString();
  std::stringstream stream;
  TextArchiveWriter writer(stream);
  model.Serialize(writer);
  return stream.str();
}

TEST(DeterminismTest, GnnTrainingIsBitReproducibleFromSeed) {
  SyntheticGraphs data = MakeSyntheticGraphs(60, 6);
  std::string first = TrainGnnAndSerialize(data);
  std::string second = TrainGnnAndSerialize(data);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second)
      << "GNN training from a fixed seed produced different weights";
}

}  // namespace
}  // namespace tasq
