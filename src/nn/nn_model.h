#ifndef TASQ_NN_NN_MODEL_H_
#define TASQ_NN_NN_MODEL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/text_io.h"
#include "ml/autograd.h"
#include "nn/pcc_loss.h"
#include "pcc/pcc.h"

namespace tasq {

/// Supervision for PCC-parameter models (NN and GNN heads): per example the
/// fitted power-law target plus the observed run at the reference token
/// count (for the LF2/LF3 runtime terms).
struct PccSupervision {
  std::vector<PowerLawPcc> targets;
  std::vector<double> observed_tokens;
  std::vector<double> observed_runtime;
  /// XGBoost predictions at the observed tokens; required only for LF3.
  std::vector<double> xgb_runtime;

  size_t size() const { return targets.size(); }
  /// Checks all populated vectors share the same length.
  TASQ_NODISCARD Status Validate(bool needs_xgb) const;
};

/// The trainable parameters of a PCC-parameter model (the NN and the GNN),
/// each under its archive tag, listed once in archive order. The model's
/// constructor adds them; the list drives Adam's parameter order,
/// NumParameters (Table 7), SavePccParameters and LoadPccParameters.
struct NamedParameters {
  std::vector<std::pair<std::string, Var>> entries;

  /// Appends a parameter initialized to `init` under `tag` and returns it.
  Var Add(std::string tag, Matrix init);
  /// Total trainable scalars.
  int64_t Count() const;
};

/// Optimization schedule and loss of TrainPccParameters; the NN and the
/// GNN fill it from their options (MakeTrainingSchedule).
struct TrainingSchedule {
  int epochs = 0;
  size_t batch_size = 1;
  double learning_rate = 0.0;
  double validation_fraction = 0.0;
  int early_stopping_patience = 0;
  LossForm loss_form = LossForm::kLF2;
  /// Already resolved: the options' override or
  /// DefaultLossWeights(loss_form).
  LossWeights loss_weights;
  /// Seeds the validation split and the per-epoch shuffles.
  uint64_t shuffle_seed = 0;
};

/// The schedule of NnOptions or GnnOptions, whose other training fields
/// share their names, with the model's batch size and resolved loss
/// weights. `seed_salt` gives each model its own shuffle stream.
template <typename Options>
TrainingSchedule MakeTrainingSchedule(const Options& options,
                                      size_t batch_size,
                                      LossWeights loss_weights,
                                      uint64_t seed_salt) {
  return {.epochs = options.epochs,
          .batch_size = batch_size,
          .learning_rate = options.learning_rate,
          .validation_fraction = options.validation_fraction,
          .early_stopping_patience = options.early_stopping_patience,
          .loss_form = options.loss_form,
          .loss_weights = loss_weights,
          .shuffle_seed = options.seed ^ seed_salt};
}

/// A model's scaled (p1, p2) heads, each count x 1, for the examples
/// idx[0..count), from one forward pass.
using PccForward =
    std::function<std::pair<Var, Var>(const size_t* idx, size_t count)>;

/// The training of the PCC-parameter models. Validates `supervision`
/// (LF3 needs xgb_runtime), fits `scaling` to its targets, then runs Adam
/// (L2 weight decay 1e-5) over `parameters` on shuffled mini-batches, each
/// batch's loss being BuildPccLoss of `forward`'s heads against the batch's
/// supervision.
/// When validation_fraction > 0 and n >= 10, a one-time shuffle holds out
/// a fixed validation tail; training stops after early_stopping_patience
/// epochs without improvement and restores the best parameters. Returns
/// the best validation loss in that case, else the final epoch's mean
/// training loss.
TASQ_NODISCARD Result<double> TrainPccParameters(
    const NamedParameters& parameters, const PccSupervision& supervision,
    const TrainingSchedule& schedule, std::optional<PccTargetScaling>& scaling,
    const PccForward& forward);

/// Writes `<prefix>.trained`, the target scaling when there is one, and
/// every listed parameter under its tag, in list order.
void SavePccParameters(TextArchiveWriter& writer, const std::string& prefix,
                       const std::optional<PccTargetScaling>& scaling,
                       const NamedParameters& parameters);

/// Reads what SavePccParameters wrote into a freshly built model: every
/// parameter must keep its shape. Errors latch on the reader and leave
/// `scaling` empty, so the model stays untrained.
void LoadPccParameters(TextArchiveReader& reader, const std::string& prefix,
                       std::optional<PccTargetScaling>& scaling,
                       const NamedParameters& parameters);

/// Training hyper-parameters for the feed-forward model, which trains on
/// mini-batches of 64 examples.
struct NnOptions {
  std::vector<size_t> hidden_sizes = {32, 16};
  int epochs = 60;
  double learning_rate = 1e-3;
  LossForm loss_form = LossForm::kLF2;
  /// When set, overrides DefaultLossWeights(loss_form).
  std::optional<LossWeights> weights;
  /// Fraction of examples held out for validation-based early stopping;
  /// 0 trains on everything for the full epoch budget.
  double validation_fraction = 0.0;
  /// Epochs without validation improvement tolerated before stopping
  /// (only meaningful when validation_fraction > 0). The parameters from
  /// the best validation epoch are restored at the end.
  int early_stopping_patience = 10;
  uint64_t seed = 1;
};

/// Feed-forward fully connected network over aggregated job-level features
/// predicting the two scaled PCC parameters (paper §4.4 "NN"). The first
/// head passes through a softplus, so every predicted curve is monotone
/// non-increasing by construction (§4.5).
class NnPccModel {
 public:
  /// Builds an untrained model for `input_dim` features.
  NnPccModel(size_t input_dim, NnOptions options);

  /// Trains on standardized features (row-major N x input_dim) with the
  /// given supervision through TrainPccParameters, with one forward pass
  /// per mini-batch, and returns its loss.
  TASQ_NODISCARD Result<double> Train(const std::vector<double>& features,
                       const PccSupervision& supervision);

  /// Predicts the PCC for one standardized feature vector. Fails before
  /// training.
  TASQ_NODISCARD Result<PowerLawPcc> Predict(const std::vector<double>& features) const;

  /// Reusable activation buffers for PredictBatchInto. Matrices keep
  /// their capacity across calls, so a serving loop that recycles one
  /// scratch pays zero heap allocations per batch once warm. The first
  /// layer reads the caller's feature span directly (batch-major,
  /// count x input_dim contiguous), so there is no input staging buffer.
  struct InferenceScratch {
    std::vector<Matrix> hidden;
    Matrix head1;
    Matrix head2;
  };

  /// Inference-only batch prediction into `out` (size `count`),
  /// allocation-free once `scratch` is warm. Bit-identical to the
  /// autograd Forward pass: the dense layers ride the same MatMulAccum
  /// kernel (ml/kernels.h, identical i,k,j association) as Matrix::MatMul
  /// plus fused bias+activation epilogues performing the Add node's and
  /// the activation's operations in the same order — Predict delegates
  /// here, so the golden/determinism tests pin both paths to the same
  /// bytes.
  TASQ_NODISCARD Status PredictBatchInto(const double* features, size_t count,
                                         InferenceScratch& scratch,
                                         PowerLawPcc* out) const;

  /// Total trainable scalar parameters (Table 7).
  int64_t NumParameters() const;

  size_t input_dim() const { return input_dim_; }
  bool trained() const { return scaling_.has_value(); }
  const NnOptions& options() const { return options_; }

  /// Serializes the trained network (architecture, weights, target
  /// scaling) into an archive.
  void Serialize(TextArchiveWriter& writer) const;

  /// Reconstructs a model written by Save; errors latch on the reader and
  /// the returned model is untrained.
  static NnPccModel Deserialize(TextArchiveReader& reader);

 private:
  /// Forward pass: returns the (p1, p2) column pair for a batch input.
  std::pair<Var, Var> Forward(const Var& x) const;

  size_t input_dim_;
  NnOptions options_;
  NamedParameters parameters_;
  std::vector<Var> layer_weights_;
  std::vector<Var> layer_biases_;
  Var head1_weight_;
  Var head1_bias_;
  Var head2_weight_;
  Var head2_bias_;
  std::optional<PccTargetScaling> scaling_;
};

}  // namespace tasq

#endif  // TASQ_NN_NN_MODEL_H_
