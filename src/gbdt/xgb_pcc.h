#ifndef TASQ_GBDT_XGB_PCC_H_
#define TASQ_GBDT_XGB_PCC_H_

#include <vector>

#include "common/status.h"
#include "gbdt/gbdt.h"
#include "pcc/pcc.h"

namespace tasq {

/// Options for the XGBoost-style PCC predictors.
struct XgbPccOptions {
  GbdtOptions gbdt;
  /// Half-width of the token window around the reference count used to
  /// construct the curve (the paper uses +/-40%).
  double window_fraction = 0.4;
  /// Points sampled across the window when building a curve.
  size_t grid_points = 9;
  /// Smoothing parameter for the XGBoost-SS spline.
  double spline_lambda = 1.0;
};

/// Run-time point predictor in the XGBoost style (paper §4.4): a
/// gradient-boosted model over [job features ++ log1p(tokens)] predicting
/// run time directly. The PCC is then *constructed* from point predictions,
/// either smoothed (XGBoost SS) or refit as a power law (XGBoost PL) —
/// neither construction can guarantee a monotone non-increasing trend.
class XgbRuntimeModel {
 public:
  explicit XgbRuntimeModel(XgbPccOptions options = {});

  /// Trains on N examples: `job_features` is row-major N x feature_dim,
  /// `tokens` and `runtimes` have length N. The caller supplies AREPAS-
  /// augmented examples at alternate token counts (paper §4.4).
  TASQ_NODISCARD Status Train(const std::vector<double>& job_features, size_t rows,
               size_t feature_dim, const std::vector<double>& tokens,
               const std::vector<double>& runtimes);

  /// Predicts run time (seconds) for one job at `tokens`. This and the
  /// curve methods below fail with InvalidArgument unless the count is
  /// finite and in (0, kMaxReferenceTokens].
  TASQ_NODISCARD Result<double> PredictRuntime(const std::vector<double>& job_features,
                                double tokens) const;

  /// Raw point predictions across the window around `reference_tokens`.
  TASQ_NODISCARD Result<std::vector<PccSample>> PredictCurve(
      const std::vector<double>& job_features, double reference_tokens) const;

  /// XGBoost SS: the window's point predictions through a cubic smoothing
  /// spline, interpolated (lambda = 0) through the smoothed knots so every
  /// SS consumer evaluates this one spline. Its knots are the window.
  TASQ_NODISCARD Result<SmoothingSpline> PredictSmoothedCurve(
      const std::vector<double>& job_features, double reference_tokens) const;

  /// XGBoost PL: a power law refit to the point predictions.
  TASQ_NODISCARD Result<PowerLawPcc> PredictPowerLawPcc(
      const std::vector<double>& job_features, double reference_tokens) const;

  bool trained() const { return model_.trained(); }
  /// The trees (e.g., for feature importance); the last feature is tokens.
  const GbdtRegressor& gbdt() const { return model_; }

  /// Serializes the trained runtime model and its curve-construction
  /// options into an archive.
  void Serialize(TextArchiveWriter& writer) const;

  /// Reconstructs a model written by Save; errors latch on the reader.
  static XgbRuntimeModel Deserialize(TextArchiveReader& reader);

 private:
  XgbPccOptions options_;
  size_t feature_dim_ = 0;
  GbdtRegressor model_;
};

}  // namespace tasq

#endif  // TASQ_GBDT_XGB_PCC_H_
