#include "gnn/gnn_model.h"

#include <algorithm>

#include "common/rng.h"

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
  for (size_t i = 0; i < options_.gcn_hidden.size(); ++i) {
    size_t width = options_.gcn_hidden[i];
    size_t in_width = options_.aggregator == GnnAggregator::kSage
                          ? 2 * previous
                          : previous;
    gcn_weights_.push_back(
        parameters_.Add("gnn.gcn_w" + std::to_string(i),
                        Matrix::GlorotUniform(in_width, width, rng)));
    gcn_biases_.push_back(
        parameters_.Add("gnn.gcn_b" + std::to_string(i), Matrix(1, width)));
    previous = width;
  }
  context_weight_ = parameters_.Add(
      "gnn.ctx_w", Matrix::GlorotUniform(previous, previous, rng));
  context_bias_ = parameters_.Add("gnn.ctx_b", Matrix(1, previous));
  for (size_t i = 0; i < options_.head_hidden.size(); ++i) {
    size_t width = options_.head_hidden[i];
    head_weights_.push_back(
        parameters_.Add("gnn.head_w" + std::to_string(i),
                        Matrix::GlorotUniform(previous, width, rng)));
    head_biases_.push_back(
        parameters_.Add("gnn.head_b" + std::to_string(i), Matrix(1, width)));
    previous = width;
  }
  head1_weight_ =
      parameters_.Add("gnn.head1_w", Matrix::GlorotUniform(previous, 1, rng));
  head1_bias_ = parameters_.Add("gnn.head1_b", Matrix(1, 1));
  head2_weight_ =
      parameters_.Add("gnn.head2_w", Matrix::GlorotUniform(previous, 1, rng));
  head2_bias_ = parameters_.Add("gnn.head2_b", Matrix(1, 1));
}

int64_t GnnPccModel::NumParameters() const { return parameters_.Count(); }

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
  if (graphs.size() != supervision.size()) {
    return Status::InvalidArgument("one graph per supervision example");
  }
  for (const GraphExample& graph : graphs) {
    if (!ShapesValid(graph, node_feature_dim_)) {
      return Status::InvalidArgument("graph example shapes are inconsistent");
    }
  }
  // One forward pass over the batch's block-diagonal graph; the loss
  // averages over its graphs, as the NN's does over its rows.
  auto forward = [&](const size_t* idx, size_t count) {
    std::vector<const GraphExample*> batch(count);
    for (size_t r = 0; r < count; ++r) batch[r] = &graphs[idx[r]];
    return Forward(batch.data(), count);
  };
  TrainingSchedule schedule =
      MakeTrainingSchedule(options_, options_.batch_size,
                           DefaultLossWeights(options_.loss_form),
                           0xFEEDF00DULL);
  return TrainPccParameters(parameters_, supervision, schedule, scaling_,
                            forward);
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
  SavePccParameters(writer, "gnn", scaling_, parameters_);
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
  reader.Scalar("gnn.node_feature_dim", node_dim);
  reader.Vector("gnn.gcn_hidden", gcn);
  reader.Vector("gnn.head_hidden", head);
  reader.Scalar("gnn.attention", attention);
  reader.Scalar("gnn.aggregator", aggregator);
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
  LoadPccParameters(reader, "gnn", model.scaling_, model.parameters_);
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
