#include "nn/nn_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/fmath.h"
#include "common/rng.h"
#include "ml/kernels.h"
#include "ml/matrix_io.h"
#include "ml/optimizer.h"

namespace tasq {

namespace {

/// L2 weight decay of Adam's updates, for the NN and the GNN alike.
constexpr double kWeightDecay = 1e-5;
/// Examples per NN gradient step.
constexpr size_t kNnBatchSize = 64;

/// Layer epilogues for the batched forward pass. The hidden layers and
/// the identity head ride vectorized kernels; the softplus head is
/// exp-based, and there is no vector math library under strict IEEE (no
/// -ffast-math in this repo), so it stays scalar by design — it touches
/// count x 1 outputs, not the count x width hidden activations.
enum class Activation { kRelu, kSoftplus, kIdentity };

/// out = activation(x * w + bias), with `x` a batch-major rows x inner
/// raw span and bias row-broadcast. Replicates the autograd path
/// bit-for-bit: the product rides the same MatMulAccum kernel (identical
/// i,k,j association) as Matrix::MatMul, and the fused bias+activation
/// epilogue performs the same per-element operations in the same order as
/// the Add node followed by the elementwise activation — so
/// PredictBatchInto and the autograd Forward produce identical bytes
/// (pinned by the determinism tests).
void DenseLayerInto(const double* x, size_t rows, size_t inner,
                    const Matrix& w, const Matrix& bias,
                    Activation activation, Matrix* out) {
  TASQ_CHECK_EQ(inner, w.rows());
  size_t cols = w.cols();
  out->Resize(rows, cols);
  out->SetZero();
  MatMulAccum(out->data().data(), x, w.data().data(), rows, inner, cols);
  const double* bd = bias.data().data();
  for (size_t i = 0; i < rows; ++i) {
    double* orow = out->Row(i);
    switch (activation) {
      case Activation::kRelu:
        VecBiasRelu(orow, bd, cols);
        break;
      case Activation::kSoftplus:
        for (size_t j = 0; j < cols; ++j) {
          orow[j] = StableSoftplus(orow[j] + bd[j]);
        }
        break;
      case Activation::kIdentity:
        VecBiasAdd(orow, bd, cols);
        break;
    }
  }
}

}  // namespace

Status PccSupervision::Validate(bool needs_xgb) const {
  size_t n = targets.size();
  if (n == 0) return Status::InvalidArgument("supervision is empty");
  if (observed_tokens.size() != n || observed_runtime.size() != n) {
    return Status::InvalidArgument(
        "observed tokens/runtime must match target count");
  }
  if (needs_xgb && xgb_runtime.size() != n) {
    return Status::InvalidArgument("LF3 requires xgb_runtime per example");
  }
  return Status::Ok();
}

Var NamedParameters::Add(std::string tag, Matrix init) {
  return entries.emplace_back(std::move(tag), MakeParameter(std::move(init)))
      .second;
}

int64_t NamedParameters::Count() const {
  int64_t total = 0;
  for (const auto& entry : entries) {
    total += static_cast<int64_t>(entry.second->value.size());
  }
  return total;
}

NnPccModel::NnPccModel(size_t input_dim, NnOptions options)
    : input_dim_(input_dim), options_(std::move(options)) {
  Rng rng(options_.seed);
  size_t previous = input_dim_;
  for (size_t i = 0; i < options_.hidden_sizes.size(); ++i) {
    size_t width = options_.hidden_sizes[i];
    layer_weights_.push_back(parameters_.Add(
        "nn.w" + std::to_string(i), Matrix::GlorotUniform(previous, width, rng)));
    layer_biases_.push_back(
        parameters_.Add("nn.b" + std::to_string(i), Matrix(1, width)));
    previous = width;
  }
  head1_weight_ =
      parameters_.Add("nn.head1_w", Matrix::GlorotUniform(previous, 1, rng));
  head1_bias_ = parameters_.Add("nn.head1_b", Matrix(1, 1));
  head2_weight_ =
      parameters_.Add("nn.head2_w", Matrix::GlorotUniform(previous, 1, rng));
  head2_bias_ = parameters_.Add("nn.head2_b", Matrix(1, 1));
}

int64_t NnPccModel::NumParameters() const { return parameters_.Count(); }

std::pair<Var, Var> NnPccModel::Forward(const Var& x) const {
  Var h = x;
  for (size_t i = 0; i < layer_weights_.size(); ++i) {
    h = Relu(Add(MatMul(h, layer_weights_[i]), layer_biases_[i]));
  }
  Var p1 = Softplus(Add(MatMul(h, head1_weight_), head1_bias_));
  Var p2 = Add(MatMul(h, head2_weight_), head2_bias_);
  return {p1, p2};
}

Result<double> TrainPccParameters(const NamedParameters& parameters,
                                  const PccSupervision& supervision,
                                  const TrainingSchedule& schedule,
                                  std::optional<PccTargetScaling>& scaling,
                                  const PccForward& forward) {
  bool needs_xgb = schedule.loss_form == LossForm::kLF3;
  Status valid = supervision.Validate(needs_xgb);
  if (!valid.ok()) return valid;
  Result<PccTargetScaling> fitted = PccTargetScaling::Fit(supervision.targets);
  if (!fitted.ok()) return fitted.status();
  scaling = fitted.value();
  size_t n = supervision.size();
  std::vector<double> scaled_targets(2 * n);
  for (size_t i = 0; i < n; ++i) {
    auto [t1, t2] = scaling->ToScaled(supervision.targets[i]);
    scaled_targets[2 * i] = t1;
    scaled_targets[2 * i + 1] = t2;
  }
  // The mean loss of examples idx[0..count), from one forward pass.
  auto batch_loss = [&](const size_t* idx, size_t count) -> Result<Var> {
    PccLossBatch batch;
    batch.scaled_targets.resize(2 * count);
    batch.observed_tokens.resize(count);
    batch.observed_runtime.resize(count);
    if (needs_xgb) batch.xgb_runtime.resize(count);
    for (size_t r = 0; r < count; ++r) {
      size_t i = idx[r];
      batch.scaled_targets[2 * r] = scaled_targets[2 * i];
      batch.scaled_targets[2 * r + 1] = scaled_targets[2 * i + 1];
      batch.observed_tokens[r] = supervision.observed_tokens[i];
      batch.observed_runtime[r] = supervision.observed_runtime[i];
      if (needs_xgb) batch.xgb_runtime[r] = supervision.xgb_runtime[i];
    }
    auto [p1, p2] = forward(idx, count);
    return BuildPccLoss(p1, p2, *scaling, batch, schedule.loss_weights);
  };

  std::vector<Var> vars;
  vars.reserve(parameters.entries.size());
  for (const auto& entry : parameters.entries) vars.push_back(entry.second);
  AdamOptimizer optimizer(vars, {.learning_rate = schedule.learning_rate,
                                 .weight_decay = kWeightDecay});
  Rng rng(schedule.shuffle_seed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // Optional validation split for early stopping: a deterministic shuffle
  // assigns the tail to validation; training shuffles only the head.
  size_t validation = 0;
  if (schedule.validation_fraction > 0.0 && n >= 10) {
    rng.Shuffle(order);
    validation = std::min(
        n / 2, static_cast<size_t>(std::ceil(
                   schedule.validation_fraction * static_cast<double>(n))));
  }
  size_t train_count = n - validation;

  std::vector<Matrix> best_values;
  double best_validation_loss = 1e300;
  int epochs_without_improvement = 0;

  size_t batch = std::max<size_t>(1, std::min(schedule.batch_size, n));
  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < schedule.epochs; ++epoch) {
    // Shuffle only the training head so the validation tail stays fixed.
    for (size_t i = train_count; i > 1; --i) {
      size_t j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < train_count; start += batch) {
      size_t end = std::min(start + batch, train_count);
      Result<Var> loss = batch_loss(order.data() + start, end - start);
      if (!loss.ok()) return loss.status();
      Backward(loss.value());
      optimizer.Step();
      epoch_loss += loss.value()->value.At(0, 0);
      ++batches;
    }
    last_epoch_loss =
        epoch_loss / static_cast<double>(std::max<size_t>(1, batches));

    if (validation > 0) {
      Result<Var> val_loss =
          batch_loss(order.data() + train_count, validation);
      if (!val_loss.ok()) return val_loss.status();
      double value = val_loss.value()->value.At(0, 0);
      if (value < best_validation_loss - 1e-9) {
        best_validation_loss = value;
        epochs_without_improvement = 0;
        best_values.clear();
        for (const Var& p : vars) best_values.push_back(p->value);
      } else if (++epochs_without_improvement >=
                 schedule.early_stopping_patience) {
        break;
      }
    }
  }
  if (validation > 0 && !best_values.empty()) {
    for (size_t i = 0; i < vars.size(); ++i) vars[i]->value = best_values[i];
    return best_validation_loss;
  }
  return last_epoch_loss;
}

Result<double> NnPccModel::Train(const std::vector<double>& features,
                                 const PccSupervision& supervision) {
  if (features.size() != supervision.size() * input_dim_) {
    return Status::InvalidArgument("feature matrix size mismatch");
  }
  // One forward pass over the batch's stacked feature rows.
  auto forward = [&](const size_t* idx, size_t count) {
    Matrix x(count, input_dim_);
    for (size_t r = 0; r < count; ++r) {
      std::copy_n(features.begin() + static_cast<long>(idx[r] * input_dim_),
                  input_dim_, x.Row(r));
    }
    return Forward(MakeConstant(std::move(x)));
  };
  TrainingSchedule schedule = MakeTrainingSchedule(
      options_, kNnBatchSize,
      options_.weights.value_or(DefaultLossWeights(options_.loss_form)),
      0xBADC0FFEULL);
  return TrainPccParameters(parameters_, supervision, schedule, scaling_,
                            forward);
}

void SavePccParameters(TextArchiveWriter& writer, const std::string& prefix,
                       const std::optional<PccTargetScaling>& scaling,
                       const NamedParameters& parameters) {
  writer.Scalar(prefix + ".trained", static_cast<int64_t>(scaling ? 1 : 0));
  if (scaling) {
    writer.Scalar(prefix + ".scaling_s1", scaling->s1());
    writer.Scalar(prefix + ".scaling_s2", scaling->s2());
  }
  for (const auto& [tag, parameter] : parameters.entries) {
    SaveMatrix(writer, tag, parameter->value);
  }
}

void LoadPccParameters(TextArchiveReader& reader, const std::string& prefix,
                       std::optional<PccTargetScaling>& scaling,
                       const NamedParameters& parameters) {
  int64_t trained = 0;
  reader.Scalar(prefix + ".trained", trained);
  if (trained == 1) {
    double s1 = 1.0;
    double s2 = 1.0;
    reader.Scalar(prefix + ".scaling_s1", s1);
    reader.Scalar(prefix + ".scaling_s2", s2);
    if (reader.status().ok() && s1 > 0.0 && s2 > 0.0) {
      scaling.emplace(s1, s2);
    } else {
      reader.ForceError(prefix + " scaling factors must be positive");
    }
  }
  for (const auto& [tag, parameter] : parameters.entries) {
    Matrix loaded = LoadMatrix(reader, tag);
    if (!reader.status().ok()) break;
    if (!loaded.SameShape(parameter->value)) {
      reader.ForceError(prefix + " parameter shape mismatch for '" + tag + "'");
      break;
    }
    parameter->value = std::move(loaded);
  }
  if (!reader.status().ok()) scaling.reset();
}

void NnPccModel::Serialize(TextArchiveWriter& writer) const {
  writer.String("nn.format", "tasq-nn-v1");
  writer.Scalar("nn.input_dim", static_cast<int64_t>(input_dim_));
  std::vector<double> hidden;
  for (size_t width : options_.hidden_sizes) {
    hidden.push_back(static_cast<double>(width));
  }
  writer.Vector("nn.hidden_sizes", hidden);
  SavePccParameters(writer, "nn", scaling_, parameters_);
}

NnPccModel NnPccModel::Deserialize(TextArchiveReader& reader) {
  std::string format;
  reader.String("nn.format", format);
  if (reader.status().ok() && format != "tasq-nn-v1") {
    reader.ForceError("unknown nn archive format '" + format + "'");
  }
  int64_t input_dim = 0;
  std::vector<double> hidden;
  reader.Scalar("nn.input_dim", input_dim);
  reader.Vector("nn.hidden_sizes", hidden);
  NnOptions options;
  options.hidden_sizes.clear();
  for (double width : hidden) {
    options.hidden_sizes.push_back(static_cast<size_t>(width));
  }
  NnPccModel model(static_cast<size_t>(std::max<int64_t>(0, input_dim)),
                   options);
  LoadPccParameters(reader, "nn", model.scaling_, model.parameters_);
  return model;
}

Result<PowerLawPcc> NnPccModel::Predict(
    const std::vector<double>& features) const {
  if (features.size() != input_dim_) {
    return Status::InvalidArgument("feature matrix size mismatch");
  }
  InferenceScratch scratch;
  PowerLawPcc pcc;
  Status status = PredictBatchInto(features.data(), 1, scratch, &pcc);
  if (!status.ok()) return status;
  return pcc;
}

Status NnPccModel::PredictBatchInto(const double* features, size_t count,
                                    InferenceScratch& scratch,
                                    PowerLawPcc* out) const {
  if (!trained()) {
    return Status::FailedPrecondition("model has not been trained");
  }
  if (count == 0) return Status::Ok();
  if (scratch.hidden.size() != layer_weights_.size()) {
    scratch.hidden.resize(layer_weights_.size());
  }
  // The first layer reads the caller's batch-major feature span in place;
  // the old path copied it into a scratch matrix first.
  const double* h = features;
  size_t h_cols = input_dim_;
  for (size_t i = 0; i < layer_weights_.size(); ++i) {
    DenseLayerInto(h, count, h_cols, layer_weights_[i]->value,
                   layer_biases_[i]->value, Activation::kRelu,
                   &scratch.hidden[i]);
    h = scratch.hidden[i].data().data();
    h_cols = scratch.hidden[i].cols();
  }
  DenseLayerInto(h, count, h_cols, head1_weight_->value, head1_bias_->value,
                 Activation::kSoftplus, &scratch.head1);
  DenseLayerInto(h, count, h_cols, head2_weight_->value, head2_bias_->value,
                 Activation::kIdentity, &scratch.head2);
  for (size_t i = 0; i < count; ++i) {
    out[i] = scaling_->FromScaled(scratch.head1.At(i, 0),
                                  scratch.head2.At(i, 0));
  }
  return Status::Ok();
}

}  // namespace tasq
