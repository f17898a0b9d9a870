#include "gnn/gnn_model.h"

#include <algorithm>

#include "common/rng.h"
#include "ml/matrix_io.h"
#include "ml/optimizer.h"

namespace tasq {

namespace {

bool ShapesValid(const GraphExample& graph, size_t node_feature_dim) {
  return graph.num_nodes > 0 &&
         graph.node_features.size() == graph.num_nodes * node_feature_dim &&
         graph.norm_adjacency.size() == graph.num_nodes * graph.num_nodes;
}

/// A batch of graphs joined into one block-diagonal graph: node rows are
/// stacked in batch order, and graph g owns rows [offsets[g],
/// offsets[g + 1]).
struct GraphBatch {
  std::vector<size_t> offsets;
  std::shared_ptr<CsrMatrix> adjacency;
  /// Input of the first graph layer: A·X for GCN, [X, A·X] for SAGE, or X
  /// itself when there is no graph layer.
  Matrix input;
};

/// Builds the batch's CSR adjacency from each graph's dense normalized
/// adjacency (columns ascending, exact zeros dropped) and computes the
/// first layer's input. No parameter touches A·X, so it is computed here,
/// outside the autograd graph, and nothing of it outlives the batch.
GraphBatch AssembleBatch(const GraphExample* const* graphs, size_t count,
                         size_t dim, bool aggregate, bool sage) {
  // num: float-eq an absent edge is an exact 0.0 and adds nothing
  auto is_edge = [](double v) { return v != 0.0; };
  GraphBatch batch;
  batch.offsets.assign(1, 0);
  size_t edges = 0;
  for (size_t g = 0; g < count; ++g) {
    const std::vector<double>& dense = graphs[g]->norm_adjacency;
    batch.offsets.push_back(batch.offsets.back() + graphs[g]->num_nodes);
    edges += static_cast<size_t>(
        std::count_if(dense.begin(), dense.end(), is_edge));
  }
  size_t total = batch.offsets.back();
  Matrix x(total, dim);
  auto adjacency = std::make_shared<CsrMatrix>();
  adjacency->rows = total;
  adjacency->cols = total;
  adjacency->row_begin.reserve(total + 1);
  adjacency->col_index.reserve(edges);
  adjacency->values.reserve(edges);
  for (size_t g = 0; g < count; ++g) {
    const GraphExample& graph = *graphs[g];
    size_t base = batch.offsets[g];
    size_t n = graph.num_nodes;
    std::copy(graph.node_features.begin(), graph.node_features.end(),
              x.Row(base));
    for (size_t i = 0; i < n; ++i) {
      const double* row = graph.norm_adjacency.data() + i * n;
      for (size_t j = 0; j < n; ++j) {
        if (is_edge(row[j])) {
          adjacency->col_index.push_back(base + j);
          adjacency->values.push_back(row[j]);
        }
      }
      adjacency->row_begin.push_back(adjacency->col_index.size());
    }
  }
  if (!aggregate) {
    batch.input = std::move(x);
  } else if (!sage) {
    batch.input = adjacency->MatMul(x);
  } else {
    Matrix ax = adjacency->MatMul(x);
    batch.input = Matrix(total, 2 * dim);
    for (size_t r = 0; r < total; ++r) {
      std::copy_n(x.Row(r), dim, batch.input.Row(r));
      std::copy_n(ax.Row(r), dim, batch.input.Row(r) + dim);
    }
  }
  batch.adjacency = std::move(adjacency);
  return batch;
}

}  // namespace

GnnPccModel::GnnPccModel(size_t node_feature_dim, GnnOptions options)
    : node_feature_dim_(node_feature_dim), options_(std::move(options)) {
  Rng rng(options_.seed);
  size_t previous = node_feature_dim_;
  for (size_t width : options_.gcn_hidden) {
    size_t in_width = options_.aggregator == GnnAggregator::kSage
                          ? 2 * previous
                          : previous;
    gcn_weights_.push_back(
        MakeParameter(Matrix::GlorotUniform(in_width, width, rng)));
    gcn_biases_.push_back(MakeParameter(Matrix(1, width)));
    previous = width;
  }
  context_weight_ =
      MakeParameter(Matrix::GlorotUniform(previous, previous, rng));
  context_bias_ = MakeParameter(Matrix(1, previous));
  for (size_t width : options_.head_hidden) {
    head_weights_.push_back(
        MakeParameter(Matrix::GlorotUniform(previous, width, rng)));
    head_biases_.push_back(MakeParameter(Matrix(1, width)));
    previous = width;
  }
  head1_weight_ = MakeParameter(Matrix::GlorotUniform(previous, 1, rng));
  head1_bias_ = MakeParameter(Matrix(1, 1));
  head2_weight_ = MakeParameter(Matrix::GlorotUniform(previous, 1, rng));
  head2_bias_ = MakeParameter(Matrix(1, 1));
}

std::vector<Var> GnnPccModel::AllParameters() const {
  std::vector<Var> params;
  for (size_t i = 0; i < gcn_weights_.size(); ++i) {
    params.push_back(gcn_weights_[i]);
    params.push_back(gcn_biases_[i]);
  }
  params.push_back(context_weight_);
  params.push_back(context_bias_);
  for (size_t i = 0; i < head_weights_.size(); ++i) {
    params.push_back(head_weights_[i]);
    params.push_back(head_biases_[i]);
  }
  params.push_back(head1_weight_);
  params.push_back(head1_bias_);
  params.push_back(head2_weight_);
  params.push_back(head2_bias_);
  return params;
}

int64_t GnnPccModel::NumParameters() const {
  return CountParameters(AllParameters());
}

std::pair<Var, Var> GnnPccModel::Forward(const GraphExample* const* graphs,
                                         size_t count) const {
  bool sage = options_.aggregator == GnnAggregator::kSage;
  GraphBatch batch = AssembleBatch(graphs, count, node_feature_dim_,
                                   !gcn_weights_.empty(), sage);
  const std::vector<size_t>& offsets = batch.offsets;
  // Node-level embeddings: stacked graph layers over all the batch's nodes.
  Var h = MakeConstant(std::move(batch.input));
  for (size_t l = 0; l < gcn_weights_.size(); ++l) {
    Var input = h;
    if (l > 0) {
      Var aggregated = SparseMatMul(batch.adjacency, h);
      input = sage ? ConcatCols(h, aggregated) : aggregated;
    }
    h = Relu(Add(MatMul(input, gcn_weights_[l]), gcn_biases_[l]));
  }
  Var graph_embedding;  // count x d.
  if (options_.attention_pooling) {
    // Global context per graph: nonlinear transform of its mean node
    // embedding.
    Var context = Tanh(
        Add(MatMul(SegmentMean(h, offsets), context_weight_), context_bias_));
    // Attention weight per node: similarity to its graph's context.
    Var scores = Sigmoid(SegmentRowDot(h, context, offsets));
    // Graph embedding: attention-weighted sum of its node embeddings.
    graph_embedding = SegmentWeightedSum(scores, h, offsets);
  } else {
    graph_embedding = SegmentMean(h, offsets);
  }
  Var out = graph_embedding;
  for (size_t l = 0; l < head_weights_.size(); ++l) {
    out = Relu(Add(MatMul(out, head_weights_[l]), head_biases_[l]));
  }
  Var p1 = Softplus(Add(MatMul(out, head1_weight_), head1_bias_));
  Var p2 = Add(MatMul(out, head2_weight_), head2_bias_);
  return {p1, p2};
}

Result<double> GnnPccModel::Train(const std::vector<GraphExample>& graphs,
                                  const PccSupervision& supervision) {
  bool needs_xgb = options_.loss_form == LossForm::kLF3;
  Status valid = supervision.Validate(needs_xgb);
  if (!valid.ok()) return valid;
  size_t n = supervision.size();
  if (graphs.size() != n) {
    return Status::InvalidArgument("one graph per supervision example");
  }
  for (const GraphExample& graph : graphs) {
    if (!ShapesValid(graph, node_feature_dim_)) {
      return Status::InvalidArgument("graph example shapes are inconsistent");
    }
  }
  Result<PccTargetScaling> scaling = PccTargetScaling::Fit(supervision.targets);
  if (!scaling.ok()) return scaling.status();
  scaling_ = std::make_unique<PccTargetScaling>(scaling.value());

  LossWeights weights = options_.override_weights
                            ? options_.weights
                            : DefaultLossWeights(options_.loss_form);
  // One forward pass over the batch's block-diagonal graph; the loss
  // averages over its graphs, as the NN's does over its rows.
  auto batch_loss = [&](const size_t* idx, size_t count) -> Result<Var> {
    std::vector<const GraphExample*> batch(count);
    PccLossBatch loss_batch;
    loss_batch.scaled_targets.resize(2 * count);
    loss_batch.observed_tokens.resize(count);
    loss_batch.observed_runtime.resize(count);
    if (needs_xgb) loss_batch.xgb_runtime.resize(count);
    for (size_t r = 0; r < count; ++r) {
      size_t i = idx[r];
      batch[r] = &graphs[i];
      auto [t1, t2] = scaling_->ToScaled(supervision.targets[i]);
      loss_batch.scaled_targets[2 * r] = t1;
      loss_batch.scaled_targets[2 * r + 1] = t2;
      loss_batch.observed_tokens[r] = supervision.observed_tokens[i];
      loss_batch.observed_runtime[r] = supervision.observed_runtime[i];
      if (needs_xgb) loss_batch.xgb_runtime[r] = supervision.xgb_runtime[i];
    }
    auto [p1, p2] = Forward(batch.data(), count);
    return BuildPccLoss(p1, p2, *scaling_, loss_batch, weights);
  };
  return TrainPccParameters(
      AllParameters(), n,
      {.epochs = options_.epochs,
       .batch_size = options_.batch_size,
       .learning_rate = options_.learning_rate,
       .weight_decay = options_.weight_decay,
       .validation_fraction = options_.validation_fraction,
       .early_stopping_patience = options_.early_stopping_patience,
       .shuffle_seed = options_.seed ^ 0xFEEDF00DULL},
      batch_loss);
}

void GnnPccModel::Serialize(TextArchiveWriter& writer) const {
  writer.String("gnn.format", "tasq-gnn-v1");
  writer.Scalar("gnn.node_feature_dim",
                static_cast<int64_t>(node_feature_dim_));
  std::vector<double> gcn;
  for (size_t width : options_.gcn_hidden) {
    gcn.push_back(static_cast<double>(width));
  }
  writer.Vector("gnn.gcn_hidden", gcn);
  std::vector<double> head;
  for (size_t width : options_.head_hidden) {
    head.push_back(static_cast<double>(width));
  }
  writer.Vector("gnn.head_hidden", head);
  writer.Scalar("gnn.attention",
                static_cast<int64_t>(options_.attention_pooling ? 1 : 0));
  writer.Scalar("gnn.aggregator",
                static_cast<int64_t>(
                    options_.aggregator == GnnAggregator::kSage ? 1 : 0));
  writer.Scalar("gnn.trained", static_cast<int64_t>(trained() ? 1 : 0));
  if (trained()) {
    writer.Scalar("gnn.scaling_s1", scaling_->s1());
    writer.Scalar("gnn.scaling_s2", scaling_->s2());
  }
  for (size_t i = 0; i < gcn_weights_.size(); ++i) {
    SaveMatrix(writer, "gnn.gcn_w" + std::to_string(i), gcn_weights_[i]->value);
    SaveMatrix(writer, "gnn.gcn_b" + std::to_string(i), gcn_biases_[i]->value);
  }
  SaveMatrix(writer, "gnn.ctx_w", context_weight_->value);
  SaveMatrix(writer, "gnn.ctx_b", context_bias_->value);
  for (size_t i = 0; i < head_weights_.size(); ++i) {
    SaveMatrix(writer, "gnn.head_w" + std::to_string(i),
               head_weights_[i]->value);
    SaveMatrix(writer, "gnn.head_b" + std::to_string(i),
               head_biases_[i]->value);
  }
  SaveMatrix(writer, "gnn.head1_w", head1_weight_->value);
  SaveMatrix(writer, "gnn.head1_b", head1_bias_->value);
  SaveMatrix(writer, "gnn.head2_w", head2_weight_->value);
  SaveMatrix(writer, "gnn.head2_b", head2_bias_->value);
}

GnnPccModel GnnPccModel::Deserialize(TextArchiveReader& reader) {
  std::string format;
  reader.String("gnn.format", format);
  if (reader.status().ok() && format != "tasq-gnn-v1") {
    reader.ForceError("unknown gnn archive format '" + format + "'");
  }
  int64_t node_dim = 0;
  std::vector<double> gcn;
  std::vector<double> head;
  int64_t attention = 1;
  int64_t aggregator = 0;
  int64_t trained = 0;
  reader.Scalar("gnn.node_feature_dim", node_dim);
  reader.Vector("gnn.gcn_hidden", gcn);
  reader.Vector("gnn.head_hidden", head);
  reader.Scalar("gnn.attention", attention);
  reader.Scalar("gnn.aggregator", aggregator);
  reader.Scalar("gnn.trained", trained);
  GnnOptions options;
  options.gcn_hidden.clear();
  for (double width : gcn) {
    options.gcn_hidden.push_back(static_cast<size_t>(width));
  }
  options.head_hidden.clear();
  for (double width : head) {
    options.head_hidden.push_back(static_cast<size_t>(width));
  }
  options.attention_pooling = attention == 1;
  options.aggregator =
      aggregator == 1 ? GnnAggregator::kSage : GnnAggregator::kGcn;
  GnnPccModel model(static_cast<size_t>(std::max<int64_t>(0, node_dim)),
                    options);
  if (trained == 1) {
    double s1 = 1.0;
    double s2 = 1.0;
    reader.Scalar("gnn.scaling_s1", s1);
    reader.Scalar("gnn.scaling_s2", s2);
    if (reader.status().ok() && s1 > 0.0 && s2 > 0.0) {
      model.scaling_ = std::make_unique<PccTargetScaling>(s1, s2);
    } else {
      reader.ForceError("gnn scaling factors must be positive");
    }
  }
  auto load_into = [&](const std::string& tag, const Var& parameter) {
    Matrix loaded = LoadMatrix(reader, tag);
    if (reader.status().ok() && !loaded.SameShape(parameter->value)) {
      reader.ForceError("gnn parameter shape mismatch for '" + tag + "'");
      return;
    }
    if (reader.status().ok()) parameter->value = std::move(loaded);
  };
  for (size_t i = 0; i < model.gcn_weights_.size(); ++i) {
    load_into("gnn.gcn_w" + std::to_string(i), model.gcn_weights_[i]);
    load_into("gnn.gcn_b" + std::to_string(i), model.gcn_biases_[i]);
  }
  load_into("gnn.ctx_w", model.context_weight_);
  load_into("gnn.ctx_b", model.context_bias_);
  for (size_t i = 0; i < model.head_weights_.size(); ++i) {
    load_into("gnn.head_w" + std::to_string(i), model.head_weights_[i]);
    load_into("gnn.head_b" + std::to_string(i), model.head_biases_[i]);
  }
  load_into("gnn.head1_w", model.head1_weight_);
  load_into("gnn.head1_b", model.head1_bias_);
  load_into("gnn.head2_w", model.head2_weight_);
  load_into("gnn.head2_b", model.head2_bias_);
  if (!reader.status().ok()) model.scaling_.reset();
  return model;
}

Result<PowerLawPcc> GnnPccModel::Predict(const GraphExample& graph) const {
  PowerLawPcc pcc;
  Status status = PredictBatchInto(&graph, 1, &pcc);
  if (!status.ok()) return status;
  return pcc;
}

Status GnnPccModel::PredictBatchInto(const GraphExample* graphs, size_t count,
                                     PowerLawPcc* out) const {
  if (!trained()) {
    return Status::FailedPrecondition("model has not been trained");
  }
  std::vector<const GraphExample*> batch(count);
  for (size_t i = 0; i < count; ++i) {
    if (!ShapesValid(graphs[i], node_feature_dim_)) {
      return Status::InvalidArgument("graph example shapes are inconsistent");
    }
    batch[i] = &graphs[i];
  }
  if (count == 0) return Status::Ok();
  auto [p1, p2] = Forward(batch.data(), count);
  for (size_t i = 0; i < count; ++i) {
    out[i] = scaling_->FromScaled(p1->value.At(i, 0), p2->value.At(i, 0));
  }
  return Status::Ok();
}

}  // namespace tasq
