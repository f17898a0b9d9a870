#ifndef TASQ_GNN_GNN_MODEL_H_
#define TASQ_GNN_GNN_MODEL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/text_io.h"
#include "ml/autograd.h"
#include "nn/nn_model.h"
#include "nn/pcc_loss.h"
#include "pcc/pcc.h"

namespace tasq {

/// One job graph prepared for the GNN: standardized operator-level features
/// and the GCN-normalized adjacency (see Featurizer).
struct GraphExample {
  size_t num_nodes = 0;
  /// Row-major num_nodes x node_feature_dim.
  std::vector<double> node_features;
  /// Row-major num_nodes x num_nodes.
  std::vector<double> norm_adjacency;
};

/// Neighborhood-aggregation scheme for the graph layers.
enum class GnnAggregator {
  /// Kipf-Welling GCN: H' = relu(A_hat H W) with the normalized adjacency.
  kGcn,
  /// GraphSAGE-style: H' = relu([H, A_hat H] W) — the node's own features
  /// concatenated with the aggregated neighborhood (W is 2*d_in x d_out).
  kSage,
};

/// Hyper-parameters for the graph model.
struct GnnOptions {
  /// Output widths of the stacked GCN layers.
  std::vector<size_t> gcn_hidden = {64, 32};
  GnnAggregator aggregator = GnnAggregator::kGcn;
  /// Hidden widths of the fully connected head after pooling.
  std::vector<size_t> head_hidden = {32};
  int epochs = 25;
  /// Graphs per gradient step (losses averaged across the mini-batch).
  size_t batch_size = 16;
  double learning_rate = 1e-3;
  /// Trained with DefaultLossWeights(loss_form).
  LossForm loss_form = LossForm::kLF2;
  /// When false, attention pooling is replaced by plain mean pooling
  /// (ablation knob).
  bool attention_pooling = true;
  /// Fraction of graphs held out for validation-based early stopping;
  /// 0 trains on everything for the full epoch budget.
  double validation_fraction = 0.0;
  /// Epochs without validation improvement tolerated before stopping; the
  /// best-validation parameters are restored at the end.
  int early_stopping_patience = 5;
  uint64_t seed = 1;
};

/// Graph neural network over operator-level features (paper §4.4, Figure
/// 10): stacked graph-convolution layers produce node embeddings, a
/// SimGNN-style attention layer pools them into a graph embedding (each
/// node weighted by the sigmoid similarity to a learned nonlinear global
/// context), and a fully connected head predicts the two scaled PCC
/// parameters under the same sign-constrained mapping as the NN.
///
/// Training and scoring share one forward pass over a batch of graphs
/// joined into one block-diagonal graph (DESIGN.md, "GNN"): each graph's
/// result is bit-identical to a batch of that graph alone.
class GnnPccModel {
 public:
  GnnPccModel(size_t node_feature_dim, GnnOptions options);

  /// Trains on one graph per supervision example through the NN's
  /// TrainPccParameters, with one forward pass per mini-batch (its loss
  /// is the PCC loss over the batch's graphs), and returns its loss.
  TASQ_NODISCARD Result<double> Train(const std::vector<GraphExample>& graphs,
                       const PccSupervision& supervision);

  /// Predicts the (guaranteed monotone non-increasing) PCC for one graph:
  /// PredictBatchInto on a batch of one.
  TASQ_NODISCARD Result<PowerLawPcc> Predict(const GraphExample& graph) const;

  /// Predicts the PCCs of graphs[0..count) into out[0..count) with one
  /// forward pass; out[i] is bit-identical to Predict(graphs[i]). Fails
  /// before training and on any graph whose shapes are inconsistent.
  TASQ_NODISCARD Status PredictBatchInto(const GraphExample* graphs,
                                         size_t count,
                                         PowerLawPcc* out) const;

  /// Total trainable scalar parameters (Table 7).
  int64_t NumParameters() const;

  bool trained() const { return scaling_.has_value(); }
  size_t node_feature_dim() const { return node_feature_dim_; }
  const GnnOptions& options() const { return options_; }

  /// Serializes the trained network (architecture, weights, target
  /// scaling) into an archive.
  void Serialize(TextArchiveWriter& writer) const;

  /// Reconstructs a model written by Save; errors latch on the reader and
  /// the returned model is untrained.
  static GnnPccModel Deserialize(TextArchiveReader& reader);

 private:
  /// Forward pass over graphs[0..count) to the scaled (p1, p2) heads,
  /// each count x 1. Shapes must already be validated.
  std::pair<Var, Var> Forward(const GraphExample* const* graphs,
                              size_t count) const;

  size_t node_feature_dim_;
  GnnOptions options_;
  NamedParameters parameters_;
  std::vector<Var> gcn_weights_;
  std::vector<Var> gcn_biases_;
  Var context_weight_;
  Var context_bias_;
  std::vector<Var> head_weights_;
  std::vector<Var> head_biases_;
  Var head1_weight_;
  Var head1_bias_;
  Var head2_weight_;
  Var head2_bias_;
  std::optional<PccTargetScaling> scaling_;
};

}  // namespace tasq

#endif  // TASQ_GNN_GNN_MODEL_H_
