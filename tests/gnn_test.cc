#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/fmath.h"
#include "common/rng.h"
#include "common/text_io.h"
#include "gnn/gnn_model.h"
#include "ml/matrix_io.h"

namespace tasq {
namespace {

// Builds a random chain graph whose PCC parameters depend on simple graph
// statistics (mean of feature 0 and node count), learnable by the GNN.
struct SyntheticGraphSet {
  std::vector<GraphExample> graphs;
  PccSupervision supervision;
  size_t feature_dim = 4;
};

GraphExample ChainGraph(size_t n, size_t dim, Rng& rng, double* mean_f0) {
  GraphExample graph;
  graph.num_nodes = n;
  graph.node_features.resize(n * dim);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      graph.node_features[i * dim + d] = rng.Uniform(-1.0, 1.0);
    }
    sum += graph.node_features[i * dim];
  }
  *mean_f0 = sum / static_cast<double>(n);
  // Normalized adjacency of an undirected chain with self loops.
  std::vector<double> adjacency(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) adjacency[i * n + i] = 1.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    adjacency[i * n + i + 1] = 1.0;
    adjacency[(i + 1) * n + i] = 1.0;
  }
  std::vector<double> inv_sqrt(n);
  for (size_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (size_t j = 0; j < n; ++j) degree += adjacency[i * n + j];
    inv_sqrt[i] = 1.0 / std::sqrt(degree);
  }
  graph.norm_adjacency.resize(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      graph.norm_adjacency[i * n + j] =
          adjacency[i * n + j] * inv_sqrt[i] * inv_sqrt[j];
    }
  }
  return graph;
}

SyntheticGraphSet MakeGraphSet(size_t count, uint64_t seed) {
  SyntheticGraphSet set;
  Rng rng(seed);
  for (size_t g = 0; g < count; ++g) {
    size_t n = static_cast<size_t>(rng.UniformInt(4, 16));
    double mean_f0 = 0.0;
    set.graphs.push_back(ChainGraph(n, set.feature_dim, rng, &mean_f0));
    PowerLawPcc target;
    target.a = -(0.5 + 0.3 * mean_f0);
    target.b = std::exp(5.0 + 0.1 * static_cast<double>(n));
    set.supervision.targets.push_back(target);
    double tokens = std::exp(rng.Uniform(2.0, 4.0));
    set.supervision.observed_tokens.push_back(tokens);
    set.supervision.observed_runtime.push_back(target.EvalRunTime(tokens));
  }
  return set;
}

TEST(GnnPccModelTest, LearnsGraphLevelRelationship) {
  SyntheticGraphSet train = MakeGraphSet(300, 1);
  GnnOptions options;
  options.epochs = 60;
  options.gcn_hidden = {16, 8};
  options.head_hidden = {8};
  options.seed = 5;
  GnnPccModel model(train.feature_dim, options);
  Result<double> loss = model.Train(train.graphs, train.supervision);
  ASSERT_TRUE(loss.ok());

  SyntheticGraphSet test = MakeGraphSet(60, 2);
  double mean_a_err = 0.0;
  for (size_t i = 0; i < test.graphs.size(); ++i) {
    Result<PowerLawPcc> pcc = model.Predict(test.graphs[i]);
    ASSERT_TRUE(pcc.ok());
    EXPECT_TRUE(pcc.value().IsMonotoneNonIncreasing());
    mean_a_err += std::fabs(pcc.value().a - test.supervision.targets[i].a);
  }
  mean_a_err /= static_cast<double>(test.graphs.size());
  // Exponents span ~0.35 around -0.5; a trained model beats the
  // predict-the-mean baseline (~0.07) decisively... but conservatively we
  // require clear learning signal.
  EXPECT_LT(mean_a_err, 0.12);
}

TEST(GnnPccModelTest, HandlesVariableGraphSizes) {
  SyntheticGraphSet train = MakeGraphSet(40, 3);
  GnnOptions options;
  options.epochs = 2;
  options.gcn_hidden = {8};
  options.head_hidden = {8};
  GnnPccModel model(train.feature_dim, options);
  ASSERT_TRUE(model.Train(train.graphs, train.supervision).ok());
  Rng rng(4);
  for (size_t n : {1u, 2u, 5u, 40u}) {
    double unused = 0.0;
    GraphExample graph = ChainGraph(n, train.feature_dim, rng, &unused);
    Result<PowerLawPcc> pcc = model.Predict(graph);
    ASSERT_TRUE(pcc.ok()) << "n=" << n;
    EXPECT_TRUE(pcc.value().IsMonotoneNonIncreasing());
  }
}

TEST(GnnPccModelTest, SageAggregatorTrainsAndPredicts) {
  SyntheticGraphSet train = MakeGraphSet(80, 7);
  GnnOptions options;
  options.epochs = 10;
  options.aggregator = GnnAggregator::kSage;
  options.gcn_hidden = {8};
  options.head_hidden = {8};
  GnnPccModel model(train.feature_dim, options);
  ASSERT_TRUE(model.Train(train.graphs, train.supervision).ok());
  // SAGE layers double the input width: 2*4*8+8 for the first layer.
  Result<PowerLawPcc> pcc = model.Predict(train.graphs[0]);
  ASSERT_TRUE(pcc.ok());
  EXPECT_TRUE(pcc.value().IsMonotoneNonIncreasing());
}

TEST(GnnPccModelTest, SageParameterCountDoublesLayerInput) {
  GnnOptions gcn_options;
  gcn_options.gcn_hidden = {8};
  gcn_options.head_hidden = {8};
  GnnOptions sage_options = gcn_options;
  sage_options.aggregator = GnnAggregator::kSage;
  GnnPccModel gcn(4, gcn_options);
  GnnPccModel sage(4, sage_options);
  // Only the graph layer differs: (2*4*8) vs (4*8) weights.
  EXPECT_EQ(sage.NumParameters() - gcn.NumParameters(), 4 * 8);
}

TEST(GnnPccModelTest, MeanPoolingAblationTrains) {
  SyntheticGraphSet train = MakeGraphSet(60, 5);
  GnnOptions options;
  options.epochs = 3;
  options.attention_pooling = false;
  options.gcn_hidden = {8};
  GnnPccModel model(train.feature_dim, options);
  EXPECT_TRUE(model.Train(train.graphs, train.supervision).ok());
}

TEST(GnnPccModelTest, EarlyStoppingTrainsAndStaysMonotone) {
  SyntheticGraphSet train = MakeGraphSet(120, 11);
  GnnOptions options;
  options.epochs = 100;
  options.validation_fraction = 0.2;
  options.early_stopping_patience = 5;
  options.gcn_hidden = {8};
  options.head_hidden = {8};
  GnnPccModel model(train.feature_dim, options);
  Result<double> best_val = model.Train(train.graphs, train.supervision);
  ASSERT_TRUE(best_val.ok());
  EXPECT_GT(best_val.value(), 0.0);
  for (size_t g = 0; g < 10; ++g) {
    Result<PowerLawPcc> pcc = model.Predict(train.graphs[g]);
    ASSERT_TRUE(pcc.ok());
    EXPECT_TRUE(pcc.value().IsMonotoneNonIncreasing());
  }
}

TEST(GnnPccModelTest, ParameterCountReflectsArchitecture) {
  GnnOptions options;
  options.gcn_hidden = {64, 32};
  options.head_hidden = {32};
  GnnPccModel model(49, options);
  int64_t expected = (49 * 64 + 64) + (64 * 32 + 32) +  // GCN layers.
                     (32 * 32 + 32) +                   // Attention context.
                     (32 * 32 + 32) +                   // Head hidden.
                     2 * (32 + 1);                      // Two output heads.
  EXPECT_EQ(model.NumParameters(), expected);
}

TEST(GnnPccModelTest, GnnHasMoreParametersThanTypicalNn) {
  // Table 7's qualitative relationship.
  GnnPccModel gnn(49, GnnOptions{});
  EXPECT_GT(gnn.NumParameters(), 5000);
}

TEST(GnnPccModelTest, ValidatesInput) {
  GnnPccModel model(4, GnnOptions{});
  GraphExample empty;
  EXPECT_FALSE(model.Predict(empty).ok());  // Untrained and empty.
  SyntheticGraphSet train = MakeGraphSet(10, 6);
  // Mismatched graph count.
  PccSupervision bad = train.supervision;
  bad.targets.pop_back();
  bad.observed_tokens.pop_back();
  bad.observed_runtime.pop_back();
  EXPECT_FALSE(model.Train(train.graphs, bad).ok());
  // Bad graph shape.
  std::vector<GraphExample> graphs = train.graphs;
  graphs[0].node_features.pop_back();
  EXPECT_FALSE(model.Train(graphs, train.supervision).ok());
}

// A trained model's weights and target scaling, read back through
// Serialize in the archive's own order.
struct DenseWeights {
  std::vector<Matrix> gcn_w, gcn_b, head_w, head_b;
  Matrix ctx_w, ctx_b, head1_w, head1_b, head2_w, head2_b;
  double s1 = 0.0;
  double s2 = 0.0;
};

DenseWeights ReadBackWeights(const GnnPccModel& model) {
  std::stringstream stream;
  TextArchiveWriter writer(stream);
  model.Serialize(writer);
  TextArchiveReader reader(stream);
  std::string format;
  int64_t dim = 0;
  int64_t attention = 0;
  int64_t aggregator = 0;
  int64_t trained = 0;
  std::vector<double> gcn;
  std::vector<double> head;
  reader.String("gnn.format", format);
  reader.Scalar("gnn.node_feature_dim", dim);
  reader.Vector("gnn.gcn_hidden", gcn);
  reader.Vector("gnn.head_hidden", head);
  reader.Scalar("gnn.attention", attention);
  reader.Scalar("gnn.aggregator", aggregator);
  reader.Scalar("gnn.trained", trained);
  DenseWeights w;
  reader.Scalar("gnn.scaling_s1", w.s1);
  reader.Scalar("gnn.scaling_s2", w.s2);
  for (size_t i = 0; i < gcn.size(); ++i) {
    w.gcn_w.push_back(LoadMatrix(reader, "gnn.gcn_w" + std::to_string(i)));
    w.gcn_b.push_back(LoadMatrix(reader, "gnn.gcn_b" + std::to_string(i)));
  }
  w.ctx_w = LoadMatrix(reader, "gnn.ctx_w");
  w.ctx_b = LoadMatrix(reader, "gnn.ctx_b");
  for (size_t i = 0; i < head.size(); ++i) {
    w.head_w.push_back(LoadMatrix(reader, "gnn.head_w" + std::to_string(i)));
    w.head_b.push_back(LoadMatrix(reader, "gnn.head_b" + std::to_string(i)));
  }
  w.head1_w = LoadMatrix(reader, "gnn.head1_w");
  w.head1_b = LoadMatrix(reader, "gnn.head1_b");
  w.head2_w = LoadMatrix(reader, "gnn.head2_w");
  w.head2_b = LoadMatrix(reader, "gnn.head2_b");
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
  return w;
}

// relu(x * w + b) row by row, or tanh when `use_tanh`.
Matrix DenseLayer(const Matrix& x, const Matrix& w, const Matrix& b,
                  bool use_tanh) {
  Matrix out = x.MatMul(w);
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      double v = out.At(r, c) + b.At(0, c);
      out.At(r, c) = use_tanh ? std::tanh(v) : (v > 0.0 ? v : 0.0);
    }
  }
  return out;
}

// The per-graph forward pass over the dense adjacency, in plain Matrix
// arithmetic: A·H per layer, then attention pooling and the head.
PowerLawPcc DenseReferenceForward(const DenseWeights& w,
                                  const GraphExample& graph, size_t dim,
                                  bool sage) {
  size_t n = graph.num_nodes;
  Matrix adjacency(n, n, graph.norm_adjacency);
  Matrix h(n, dim, graph.node_features);
  for (size_t l = 0; l < w.gcn_w.size(); ++l) {
    Matrix aggregated = adjacency.MatMul(h);
    Matrix input = aggregated;
    if (sage) {
      input = Matrix(n, 2 * h.cols());
      for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < h.cols(); ++c) {
          input.At(r, c) = h.At(r, c);
          input.At(r, h.cols() + c) = aggregated.At(r, c);
        }
      }
    }
    h = DenseLayer(input, w.gcn_w[l], w.gcn_b[l], /*use_tanh=*/false);
  }
  Matrix mean(1, h.cols());
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < h.cols(); ++c) {
      mean.At(0, c) += h.At(r, c) / static_cast<double>(n);
    }
  }
  Matrix context = DenseLayer(mean, w.ctx_w, w.ctx_b, /*use_tanh=*/true);
  Matrix scores = h.MatMul(context.Transposed());  // n x 1.
  for (double& v : scores.data()) v = StableSigmoid(v);
  Matrix out = scores.Transposed().MatMul(h);  // 1 x d.
  for (size_t l = 0; l < w.head_w.size(); ++l) {
    out = DenseLayer(out, w.head_w[l], w.head_b[l], /*use_tanh=*/false);
  }
  double p1 = StableSoftplus(out.MatMul(w.head1_w).At(0, 0) +
                             w.head1_b.At(0, 0));
  double p2 = out.MatMul(w.head2_w).At(0, 0) + w.head2_b.At(0, 0);
  return PccTargetScaling(w.s1, w.s2).FromScaled(p1, p2);
}

void ExpectPredictMatchesDenseReference(GnnAggregator aggregator) {
  SyntheticGraphSet train = MakeGraphSet(40, 13);
  GnnOptions options;
  options.epochs = 2;
  options.aggregator = aggregator;
  options.gcn_hidden = {8, 6};
  options.head_hidden = {5};
  GnnPccModel model(train.feature_dim, options);
  ASSERT_TRUE(model.Train(train.graphs, train.supervision).ok());
  DenseWeights weights = ReadBackWeights(model);
  bool sage = aggregator == GnnAggregator::kSage;
  std::vector<GraphExample> graphs(train.graphs.begin(),
                                   train.graphs.begin() + 8);
  Rng rng(17);
  double unused = 0.0;
  graphs.push_back(ChainGraph(1, train.feature_dim, rng, &unused));
  for (size_t g = 0; g < graphs.size(); ++g) {
    Result<PowerLawPcc> got = model.Predict(graphs[g]);
    ASSERT_TRUE(got.ok());
    PowerLawPcc want =
        DenseReferenceForward(weights, graphs[g], train.feature_dim, sage);
    // Bit for bit: the CSR propagation adds a row's non-zeros in the dense
    // product's column order, and each segment op sums in row order.
    EXPECT_EQ(got.value().a, want.a) << "graph " << g;
    EXPECT_EQ(got.value().b, want.b) << "graph " << g;
  }
  // A batch scores each graph as a batch of one does.
  std::vector<PowerLawPcc> batch(graphs.size());
  ASSERT_TRUE(
      model.PredictBatchInto(graphs.data(), graphs.size(), batch.data())
          .ok());
  for (size_t g = 0; g < graphs.size(); ++g) {
    Result<PowerLawPcc> one = model.Predict(graphs[g]);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(batch[g].a, one.value().a) << "graph " << g;
    EXPECT_EQ(batch[g].b, one.value().b) << "graph " << g;
  }
}

TEST(GnnPccModelTest, GcnPredictMatchesDenseReferenceForward) {
  ExpectPredictMatchesDenseReference(GnnAggregator::kGcn);
}

TEST(GnnPccModelTest, SagePredictMatchesDenseReferenceForward) {
  ExpectPredictMatchesDenseReference(GnnAggregator::kSage);
}

TEST(GnnPccModelTest, PredictBatchValidatesEveryGraph) {
  SyntheticGraphSet train = MakeGraphSet(20, 19);
  GnnOptions options;
  options.epochs = 1;
  options.gcn_hidden = {4};
  options.head_hidden = {4};
  GnnPccModel model(train.feature_dim, options);
  std::vector<PowerLawPcc> out(3);
  EXPECT_EQ(model.PredictBatchInto(train.graphs.data(), 3, out.data()).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(model.Train(train.graphs, train.supervision).ok());
  std::vector<GraphExample> graphs(train.graphs.begin(),
                                   train.graphs.begin() + 3);
  graphs[2].norm_adjacency.pop_back();
  EXPECT_EQ(model.PredictBatchInto(graphs.data(), 3, out.data()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(model.PredictBatchInto(graphs.data(), 0, out.data()).ok());
}

}  // namespace
}  // namespace tasq
