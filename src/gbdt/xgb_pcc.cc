#include "gbdt/xgb_pcc.h"

#include <algorithm>
#include <cmath>

#include "common/fmath.h"

namespace tasq {
namespace {

// A scoring call needs a trained model, a `feature_dim` row and finite
// tokens in (0, kMaxReferenceTokens].
Status CheckInput(const GbdtRegressor& model, size_t feature_dim,
                  const std::vector<double>& job_features, double tokens) {
  if (!model.trained()) {
    return Status::FailedPrecondition("model has not been trained");
  }
  // isfinite first: an ordered comparison on NaN traps under TASQ_FPE.
  if (job_features.size() != feature_dim || !std::isfinite(tokens) ||
      tokens <= 0.0 || tokens > kMaxReferenceTokens) {
    return Status::InvalidArgument(
        "feature dimension mismatch or tokens not finite and in "
        "(0, kMaxReferenceTokens]");
  }
  return Status::Ok();
}

}  // namespace

XgbRuntimeModel::XgbRuntimeModel(XgbPccOptions options)
    : options_(std::move(options)), model_(options_.gbdt) {}

Status XgbRuntimeModel::Train(const std::vector<double>& job_features,
                              size_t rows, size_t feature_dim,
                              const std::vector<double>& tokens,
                              const std::vector<double>& runtimes) {
  if (rows == 0 || feature_dim == 0 ||
      job_features.size() != rows * feature_dim || tokens.size() != rows ||
      runtimes.size() != rows) {
    return Status::InvalidArgument("training matrix sizes mismatch");
  }
  feature_dim_ = feature_dim;
  size_t dim = feature_dim + 1;
  std::vector<double> augmented(rows * dim);
  for (size_t r = 0; r < rows; ++r) {
    std::copy_n(job_features.begin() + static_cast<long>(r * feature_dim),
                feature_dim, augmented.begin() + static_cast<long>(r * dim));
    augmented[r * dim + feature_dim] = CheckedLog1p(std::max(0.0, tokens[r]));
  }
  return model_.Train(augmented, rows, dim, runtimes);
}

void XgbRuntimeModel::Serialize(TextArchiveWriter& writer) const {
  writer.String("xgb.format", "tasq-xgb-v1");
  writer.Scalar("xgb.window_fraction", options_.window_fraction);
  writer.Scalar("xgb.grid_points", static_cast<int64_t>(options_.grid_points));
  writer.Scalar("xgb.spline_lambda", options_.spline_lambda);
  writer.Scalar("xgb.feature_dim", static_cast<int64_t>(feature_dim_));
  model_.Serialize(writer);
}

XgbRuntimeModel XgbRuntimeModel::Deserialize(TextArchiveReader& reader) {
  std::string format;
  reader.String("xgb.format", format);
  if (reader.status().ok() && format != "tasq-xgb-v1") {
    reader.ForceError("unknown xgb archive format '" + format + "'");
  }
  XgbPccOptions options;
  int64_t grid_points = 0;
  int64_t feature_dim = 0;
  reader.Scalar("xgb.window_fraction", options.window_fraction);
  reader.Scalar("xgb.grid_points", grid_points);
  reader.Scalar("xgb.spline_lambda", options.spline_lambda);
  reader.Scalar("xgb.feature_dim", feature_dim);
  options.grid_points = static_cast<size_t>(std::max<int64_t>(0, grid_points));
  XgbRuntimeModel model(options);
  model.model_ = GbdtRegressor::Deserialize(reader);
  model.options_.gbdt = model.model_.options();
  if (reader.status().ok() && feature_dim >= 0) {
    model.feature_dim_ = static_cast<size_t>(feature_dim);
  }
  return model;
}

Result<double> XgbRuntimeModel::PredictRuntime(
    const std::vector<double>& job_features, double tokens) const {
  Status valid = CheckInput(model_, feature_dim_, job_features, tokens);
  if (!valid.ok()) return valid;
  std::vector<double> row(job_features);
  row.push_back(CheckedLog1p(tokens));
  return model_.Predict(row);
}

Result<std::vector<PccSample>> XgbRuntimeModel::PredictCurve(
    const std::vector<double>& job_features, double reference_tokens) const {
  Status valid =
      CheckInput(model_, feature_dim_, job_features, reference_tokens);
  if (!valid.ok()) return valid;
  double lo = std::max(1.0, reference_tokens * (1.0 - options_.window_fraction));
  double hi = reference_tokens * (1.0 + options_.window_fraction);
  // Every point lies between lo >= 1 and hi, so hi alone needs checking.
  if (!std::isfinite(hi) || hi <= 0.0) {
    return Status::InvalidArgument("token window is not finite and positive");
  }
  size_t points = std::max<size_t>(3, options_.grid_points);
  std::vector<double> row(feature_dim_ + 1);
  std::copy(job_features.begin(), job_features.end(), row.begin());
  std::vector<PccSample> curve;
  curve.reserve(points);
  for (size_t i = 0; i < points; ++i) {
    double tokens =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    row[feature_dim_] = CheckedLog1p(tokens);
    curve.push_back({tokens, model_.Predict(row)});
  }
  return curve;
}

Result<SmoothingSpline> XgbRuntimeModel::PredictSmoothedCurve(
    const std::vector<double>& job_features, double reference_tokens) const {
  Result<std::vector<PccSample>> raw =
      PredictCurve(job_features, reference_tokens);
  if (!raw.ok()) return raw.status();
  std::vector<double> x;
  std::vector<double> y;
  x.reserve(raw.value().size());
  y.reserve(raw.value().size());
  for (const PccSample& s : raw.value()) {
    // Spline knots must strictly increase. Window tokens do by
    // construction; collapsing ties only guards a degenerate window.
    if (!x.empty() && s.tokens <= x.back()) continue;
    x.push_back(s.tokens);
    y.push_back(s.runtime_seconds);
  }
  Result<SmoothingSpline> smoothing =
      SmoothingSpline::Fit(x, y, options_.spline_lambda);
  if (!smoothing.ok()) return smoothing.status();
  // In exact arithmetic the interpolating refit is the smoothing spline
  // itself; in floating point it is not, and SS answers keep its bits.
  for (size_t i = 0; i < x.size(); ++i) y[i] = smoothing.value().Eval(x[i]);
  return SmoothingSpline::Fit(x, y, 0.0);
}

Result<PowerLawPcc> XgbRuntimeModel::PredictPowerLawPcc(
    const std::vector<double>& job_features, double reference_tokens) const {
  Result<std::vector<PccSample>> raw =
      PredictCurve(job_features, reference_tokens);
  if (!raw.ok()) return raw.status();
  Result<PowerLawFit> fit = FitPowerLaw(raw.value());
  if (!fit.ok()) return fit.status();
  return fit.value().pcc;
}

}  // namespace tasq
