#ifndef TASQ_TASQ_TASQ_H_
#define TASQ_TASQ_TASQ_H_

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "gbdt/xgb_pcc.h"
#include "gnn/gnn_model.h"
#include "nn/nn_model.h"
#include "tasq/dataset.h"

namespace tasq {

/// The model families TASQ trains and serves (paper §4.4).
enum class ModelKind {
  /// XGBoost point predictions smoothed with a cubic spline.
  kXgboostSs,
  /// XGBoost point predictions refit as a power law.
  kXgboostPl,
  /// Feed-forward network predicting the PCC parameters.
  kNn,
  /// Graph network predicting the PCC parameters.
  kGnn,
};

/// Number of ModelKind values; bounds per-kind arrays (serve/server.cc
/// groups batch requests by kind). Keep in sync with the enum above.
inline constexpr size_t kModelKindCount = 4;
static_assert(static_cast<size_t>(ModelKind::kGnn) + 1 == kModelKindCount,
              "kModelKindCount must cover every ModelKind");

/// Short display name ("XGBoost SS", "NN", ...).
const char* ModelKindName(ModelKind kind);

/// Checks a reference token count before anything compares with it: it
/// must be finite (tested first, so a NaN never reaches an ordered
/// comparison), at least 1 and at most kMaxReferenceTokens (pcc.h), so no
/// scoring product overflows. Every Tasq scoring entry point runs it, and
/// so does ValidateWhatIfRequest.
TASQ_NODISCARD Status ValidateReferenceTokens(double reference_tokens);

/// End-to-end configuration of the TASQ pipeline.
struct TasqOptions {
  DatasetOptions dataset;
  XgbPccOptions xgb;
  NnOptions nn;
  GnnOptions gnn;
  bool train_xgb = true;
  bool train_nn = true;
  bool train_gnn = true;
};

/// A token recommendation with its predicted performance impact.
struct TokenRecommendation {
  double tokens = 0.0;
  double predicted_runtime_seconds = 0.0;
  /// Predicted slowdown vs the reference allocation
  /// (runtime(tokens)/runtime(reference) - 1).
  double predicted_slowdown = 0.0;
};

/// Reusable buffers for Tasq::PredictPccBatchInto: the standardized
/// feature-row matrix plus the NN's activation scratch. A serving worker
/// keeps one for its whole lifetime; once warm, batch prediction
/// allocates no heap memory at all (features go through
/// Featurizer::JobLevelInto's stack row into `rows`, whose capacity
/// persists across batches).
struct TasqBatchScratch {
  std::vector<double> rows;
  NnPccModel::InferenceScratch nn;
};

/// TASQ: the end-to-end pipeline (paper §2.2). Training ingests observed
/// jobs, augments them with AREPAS, fits power-law targets, and trains the
/// configured models; scoring featurizes an unseen job's compile-time graph
/// and predicts its PCC / optimal token count.
///
/// Thread-safety contract: once trained (or loaded), a Tasq is immutable —
/// every const scoring method (PredictPcc / PredictPccBatchInto /
/// PredictSmoothedCurve / PredictCurve / PredictRuntime / RecommendTokens,
/// and BuildWhatIfReport on top of them) touches no mutable or
/// lazily-initialized state and is safe to call from any number of threads
/// concurrently on the same instance. The serving layer (serve/server.h)
/// relies on this to share one pipeline across its worker threads. Train /
/// Save / Load and moves are NOT safe to run concurrently with scoring.
class Tasq {
 public:
  explicit Tasq(TasqOptions options = {});
  ~Tasq();
  Tasq(Tasq&&) noexcept;
  Tasq& operator=(Tasq&&) noexcept;

  /// Trains all configured models from observed historical jobs.
  TASQ_NODISCARD Status Train(const std::vector<ObservedJob>& observed);

  /// Predicts the PCC of an unseen job from its compile-time graph: a
  /// batch of one through PredictPccBatchInto. `reference_tokens` is the
  /// submitted/default token count — required for the XGBoost variants,
  /// whose curves are local to a reference window. XGBoost-SS has no
  /// parametric form; its curve is a spline (see PredictSmoothedCurve).
  TASQ_NODISCARD Result<PowerLawPcc> PredictPcc(const JobGraph& graph, ModelKind kind,
                                 double reference_tokens) const;

  /// Batch PCC prediction for the parametric model kinds, and the one
  /// place that dispatches on the model kind: out[i] corresponds to
  /// graphs[i] / reference_tokens[i] (each of length `count`). NN and
  /// XGBoost-PL read only the standardized job-level row; the full
  /// operator matrix and adjacency are built for the GNN alone. The NN
  /// and the GNN each run the whole batch through a single forward pass,
  /// bit-identical per job to a batch of one. The NN reuses `scratch`, so
  /// a serving loop that recycles one scratch performs the whole
  /// featurize-and-predict NN path without heap allocation once warm —
  /// HotPathTest's cold-submit allocation budget rests on this. Fails for
  /// XGBoost-SS (no parametric form), on any reference token count
  /// ValidateReferenceTokens rejects, and on the first graph that fails
  /// to featurize.
  TASQ_NODISCARD Status PredictPccBatchInto(const JobGraph* const* graphs,
                                            size_t count, ModelKind kind,
                                            const double* reference_tokens,
                                            TasqBatchScratch& scratch,
                                            PowerLawPcc* out) const;

  /// XGBoost-SS's curve: one featurization, then the spline of
  /// XgbRuntimeModel::PredictSmoothedCurve that every SS answer evaluates.
  TASQ_NODISCARD Result<SmoothingSpline> PredictSmoothedCurve(
      const JobGraph& graph, double reference_tokens) const;

  /// Samples the predicted PCC at the given token counts (works for all
  /// four model kinds, including XGBoost-SS). Fails with InvalidArgument
  /// on an empty grid or on any entry that is not finite and positive.
  /// Above its window's top knot the XGBoost-SS curve holds that knot's
  /// run time: the natural spline's linear extrapolation can fall through
  /// zero.
  TASQ_NODISCARD Result<std::vector<PccSample>> PredictCurve(
      const JobGraph& graph, ModelKind kind, double reference_tokens,
      const std::vector<double>& token_grid) const;

  /// Point prediction of run time at `tokens`: PredictCurve on a grid of
  /// one.
  TASQ_NODISCARD Result<double> PredictRuntime(const JobGraph& graph, ModelKind kind,
                                double reference_tokens, double tokens) const;

  /// Recommends the minimum token count whose marginal benefit stays above
  /// `min_improvement_percent` per token (paper §2.1), never exceeding
  /// `reference_tokens`. When `max_slowdown_fraction` is non-negative, the
  /// recommendation additionally honors the user's performance constraint:
  /// the predicted run time never exceeds (1 + max_slowdown_fraction) times
  /// the predicted run time at the reference allocation. Both bounds must
  /// be finite. XGBoost-SS walks its one spline (RecommendFromSpline).
  TASQ_NODISCARD Result<TokenRecommendation> RecommendTokens(
      const JobGraph& graph, ModelKind kind, double reference_tokens,
      double min_improvement_percent = 1.0,
      double max_slowdown_fraction = -1.0) const;

  /// Serializes the whole trained pipeline — feature scalers, target
  /// scaling, and every trained model — as a single text artifact, the
  /// stand-in for the paper's model store (Figure 4). Fails before
  /// training.
  TASQ_NODISCARD Status Save(std::ostream& out) const;
  TASQ_NODISCARD Status SaveToFile(const std::string& path) const;

  /// Reconstructs a pipeline written by Save. The loaded pipeline scores
  /// immediately (PredictPcc / RecommendTokens) without retraining.
  TASQ_NODISCARD static Result<Tasq> Load(std::istream& in);
  TASQ_NODISCARD static Result<Tasq> LoadFromFile(const std::string& path);

  bool trained() const;
  /// The target scaling fitted at training time (shared metric space for
  /// curve-parameter errors). Null before training.
  const PccTargetScaling* target_scaling() const;
  const XgbRuntimeModel* xgb() const;
  const NnPccModel* nn() const;
  const GnnPccModel* gnn() const;
  const DatasetScalers* scalers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Derives the token recommendation implied by an already-predicted
/// power-law PCC — the pure-math tail of RecommendTokens for parametric
/// models, exposed so callers holding a predicted (or cached) PCC can
/// recompute recommendations without another model inference. Identical to
/// RecommendTokens given the same PCC.
TokenRecommendation RecommendFromPowerLaw(const PowerLawPcc& pcc,
                                          double reference_tokens,
                                          double min_improvement_percent,
                                          double max_slowdown_fraction);

/// RecommendFromPowerLaw for XGBoost-SS's spline: OptimalTokensFromSamples
/// over 17 samples from 20% of the reference up to it, then the slowdown
/// bound. Identical to RecommendTokens given Tasq::PredictSmoothedCurve.
TASQ_NODISCARD Result<TokenRecommendation> RecommendFromSpline(
    const SmoothingSpline& spline, double reference_tokens,
    double min_improvement_percent, double max_slowdown_fraction);

}  // namespace tasq

#endif  // TASQ_TASQ_TASQ_H_
