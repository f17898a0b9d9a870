#include "tasq/tasq.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/text_io.h"

namespace tasq {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kXgboostSs:
      return "XGBoost SS";
    case ModelKind::kXgboostPl:
      return "XGBoost PL";
    case ModelKind::kNn:
      return "NN";
    case ModelKind::kGnn:
      return "GNN";
  }
  return "Unknown";
}

Status ValidateReferenceTokens(double reference_tokens) {
  if (!std::isfinite(reference_tokens) || reference_tokens < 1.0 ||
      reference_tokens > kMaxReferenceTokens) {
    return Status::InvalidArgument(
        "reference tokens must be finite, at least 1 and at most "
        "kMaxReferenceTokens (1e9)");
  }
  return Status::Ok();
}

struct Tasq::Impl {
  TasqOptions options;
  bool trained = false;
  std::unique_ptr<DatasetScalers> scalers;
  std::unique_ptr<PccTargetScaling> scaling;
  std::unique_ptr<XgbRuntimeModel> xgb;
  std::unique_ptr<NnPccModel> nn;
  std::unique_ptr<GnnPccModel> gnn;
  Featurizer featurizer;

  // The standardized job-level row (kJobFeatureDim doubles at `row`) —
  // all that the NN and both XGBoost variants read. Allocation-free.
  TASQ_NODISCARD Status ScaledJobRow(const JobGraph& graph,
                                     double* row) const {
    Status featurized = featurizer.JobLevelInto(graph, row);
    if (!featurized.ok()) return featurized;
    scalers->job_scaler.TransformRow(row, Featurizer::kJobFeatureDim);
    return Status::Ok();
  }

  // GNN only: the full featurization, with the operator matrix
  // standardized (the GNN never reads the job-level vector).
  TASQ_NODISCARD Status GnnExample(const JobGraph& graph,
                                   GraphExample& example) const {
    Result<JobFeatures> features = featurizer.Featurize(graph);
    if (!features.ok()) return features.status();
    scalers->op_scaler.TransformMatrix(features.value().op_matrix);
    example.num_nodes = features.value().num_operators;
    example.node_features = std::move(features.value().op_matrix);
    example.norm_adjacency = std::move(features.value().norm_adjacency);
    return Status::Ok();
  }
};

Tasq::Tasq(TasqOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
}
Tasq::~Tasq() = default;
Tasq::Tasq(Tasq&&) noexcept = default;
Tasq& Tasq::operator=(Tasq&&) noexcept = default;

Status Tasq::Train(const std::vector<ObservedJob>& observed) {
  DatasetBuilder builder(impl_->options.dataset);
  Result<Dataset> built = builder.Build(observed);
  if (!built.ok()) return built.status();
  Dataset dataset = std::move(built.value());

  Result<DatasetScalers> scalers = FitScalers(dataset);
  if (!scalers.ok()) return scalers.status();
  impl_->scalers = std::make_unique<DatasetScalers>(std::move(scalers.value()));
  ApplyScalers(*impl_->scalers, dataset);

  Result<PccTargetScaling> scaling = PccTargetScaling::Fit(dataset.targets);
  if (!scaling.ok()) return scaling.status();
  impl_->scaling = std::make_unique<PccTargetScaling>(scaling.value());

  if (impl_->options.train_xgb) {
    impl_->xgb = std::make_unique<XgbRuntimeModel>(impl_->options.xgb);
    Status trained = impl_->xgb->Train(
        dataset.point_features, dataset.point_size(), dataset.job_feature_dim,
        dataset.point_tokens, dataset.point_runtimes);
    if (!trained.ok()) return trained;
  }

  PccSupervision supervision;
  supervision.targets = dataset.targets;
  supervision.observed_tokens = dataset.observed_tokens;
  supervision.observed_runtime = dataset.observed_runtime;
  bool needs_xgb_preds = (impl_->options.train_nn &&
                          impl_->options.nn.loss_form == LossForm::kLF3) ||
                         (impl_->options.train_gnn &&
                          impl_->options.gnn.loss_form == LossForm::kLF3);
  if (needs_xgb_preds) {
    if (impl_->xgb == nullptr) {
      return Status::FailedPrecondition(
          "LF3 requires the XGBoost model to be trained");
    }
    supervision.xgb_runtime.reserve(dataset.size());
    for (size_t i = 0; i < dataset.size(); ++i) {
      std::vector<double> row(
          dataset.job_features.begin() +
              static_cast<long>(i * dataset.job_feature_dim),
          dataset.job_features.begin() +
              static_cast<long>((i + 1) * dataset.job_feature_dim));
      Result<double> prediction =
          impl_->xgb->PredictRuntime(row, dataset.observed_tokens[i]);
      if (!prediction.ok()) return prediction.status();
      supervision.xgb_runtime.push_back(
          std::max(1e-3, prediction.value()));
    }
  }

  if (impl_->options.train_nn) {
    impl_->nn = std::make_unique<NnPccModel>(dataset.job_feature_dim,
                                             impl_->options.nn);
    Result<double> loss = impl_->nn->Train(dataset.job_features, supervision);
    if (!loss.ok()) return loss.status();
  }
  if (impl_->options.train_gnn) {
    impl_->gnn = std::make_unique<GnnPccModel>(dataset.op_feature_dim,
                                               impl_->options.gnn);
    Result<double> loss = impl_->gnn->Train(dataset.graphs, supervision);
    if (!loss.ok()) return loss.status();
  }
  impl_->trained = true;
  return Status::Ok();
}

Status Tasq::Save(std::ostream& out) const {
  if (!impl_->trained) {
    return Status::FailedPrecondition("cannot save an untrained pipeline");
  }
  TextArchiveWriter writer(out);
  writer.String("tasq.format", "tasq-pipeline-v1");
  impl_->scalers->job_scaler.Serialize(writer, "tasq.job_scaler");
  impl_->scalers->op_scaler.Serialize(writer, "tasq.op_scaler");
  writer.Scalar("tasq.scaling_s1", impl_->scaling->s1());
  writer.Scalar("tasq.scaling_s2", impl_->scaling->s2());
  writer.Scalar("tasq.has_xgb",
                static_cast<int64_t>(impl_->xgb != nullptr ? 1 : 0));
  writer.Scalar("tasq.has_nn",
                static_cast<int64_t>(impl_->nn != nullptr ? 1 : 0));
  writer.Scalar("tasq.has_gnn",
                static_cast<int64_t>(impl_->gnn != nullptr ? 1 : 0));
  if (impl_->xgb != nullptr) impl_->xgb->Serialize(writer);
  if (impl_->nn != nullptr) impl_->nn->Serialize(writer);
  if (impl_->gnn != nullptr) impl_->gnn->Serialize(writer);
  if (!out) return Status::Internal("stream write failed");
  return Status::Ok();
}

Status Tasq::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open '" + path + "'");
  return Save(out);
}

Result<Tasq> Tasq::Load(std::istream& in) {
  TextArchiveReader reader(in);
  std::string format;
  reader.String("tasq.format", format);
  if (reader.status().ok() && format != "tasq-pipeline-v1") {
    reader.ForceError("unknown pipeline archive format '" + format + "'");
  }
  Tasq tasq;
  FeatureScaler job_scaler = FeatureScaler::Deserialize(reader, "tasq.job_scaler");
  FeatureScaler op_scaler = FeatureScaler::Deserialize(reader, "tasq.op_scaler");
  double s1 = 0.0;
  double s2 = 0.0;
  int64_t has_xgb = 0;
  int64_t has_nn = 0;
  int64_t has_gnn = 0;
  reader.Scalar("tasq.scaling_s1", s1);
  reader.Scalar("tasq.scaling_s2", s2);
  reader.Scalar("tasq.has_xgb", has_xgb);
  reader.Scalar("tasq.has_nn", has_nn);
  reader.Scalar("tasq.has_gnn", has_gnn);
  if (!reader.status().ok()) return reader.status();
  if (s1 <= 0.0 || s2 <= 0.0) {
    return Status::InvalidArgument("pipeline scaling must be positive");
  }
  tasq.impl_->scalers = std::make_unique<DatasetScalers>(
      DatasetScalers{std::move(job_scaler), std::move(op_scaler)});
  tasq.impl_->scaling = std::make_unique<PccTargetScaling>(s1, s2);
  if (has_xgb == 1) {
    tasq.impl_->xgb =
        std::make_unique<XgbRuntimeModel>(XgbRuntimeModel::Deserialize(reader));
  }
  if (has_nn == 1) {
    tasq.impl_->nn = std::make_unique<NnPccModel>(NnPccModel::Deserialize(reader));
  }
  if (has_gnn == 1) {
    tasq.impl_->gnn = std::make_unique<GnnPccModel>(GnnPccModel::Deserialize(reader));
  }
  if (!reader.status().ok()) return reader.status();
  tasq.impl_->options.train_xgb = has_xgb == 1;
  tasq.impl_->options.train_nn = has_nn == 1;
  tasq.impl_->options.train_gnn = has_gnn == 1;
  tasq.impl_->trained = true;
  return tasq;
}

Result<Tasq> Tasq::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  return Load(in);
}

bool Tasq::trained() const { return impl_->trained; }
const PccTargetScaling* Tasq::target_scaling() const {
  return impl_->scaling.get();
}
const XgbRuntimeModel* Tasq::xgb() const { return impl_->xgb.get(); }
const NnPccModel* Tasq::nn() const { return impl_->nn.get(); }
const GnnPccModel* Tasq::gnn() const { return impl_->gnn.get(); }
const DatasetScalers* Tasq::scalers() const { return impl_->scalers.get(); }

Result<PowerLawPcc> Tasq::PredictPcc(const JobGraph& graph, ModelKind kind,
                                     double reference_tokens) const {
  const JobGraph* graphs[] = {&graph};
  TasqBatchScratch scratch;
  PowerLawPcc pcc;
  Status status =
      PredictPccBatchInto(graphs, 1, kind, &reference_tokens, scratch, &pcc);
  if (!status.ok()) return status;
  return pcc;
}

Result<SmoothingSpline> Tasq::PredictSmoothedCurve(
    const JobGraph& graph, double reference_tokens) const {
  if (!impl_->trained) {
    return Status::FailedPrecondition("pipeline has not been trained");
  }
  Status valid = ValidateReferenceTokens(reference_tokens);
  if (!valid.ok()) return valid;
  if (impl_->xgb == nullptr) {
    return Status::FailedPrecondition("XGBoost model was not trained");
  }
  std::vector<double> row(Featurizer::kJobFeatureDim);
  Status featurized = impl_->ScaledJobRow(graph, row.data());
  if (!featurized.ok()) return featurized;
  return impl_->xgb->PredictSmoothedCurve(row, reference_tokens);
}

Result<std::vector<PccSample>> Tasq::PredictCurve(
    const JobGraph& graph, ModelKind kind, double reference_tokens,
    const std::vector<double>& token_grid) const {
  if (!impl_->trained) {
    return Status::FailedPrecondition("pipeline has not been trained");
  }
  Status valid = ValidateReferenceTokens(reference_tokens);
  if (!valid.ok()) return valid;
  if (token_grid.empty()) {
    return Status::InvalidArgument("token grid is empty");
  }
  // Checked before any model sees the grid: the spline's interval search
  // has no interval for a NaN, and a power law evaluated at 0, a negative
  // or an infinite count returns a non-finite run time.
  for (double tokens : token_grid) {
    if (!std::isfinite(tokens) || tokens <= 0.0) {
      return Status::InvalidArgument(
          "token grid entries must be finite and positive");
    }
  }
  std::vector<PccSample> out;
  out.reserve(token_grid.size());
  if (kind == ModelKind::kXgboostSs) {
    Result<SmoothingSpline> spline =
        PredictSmoothedCurve(graph, reference_tokens);
    if (!spline.ok()) return spline.status();
    double top = spline.value().knots().back();
    for (double tokens : token_grid) {
      out.push_back({tokens, spline.value().Eval(std::min(tokens, top))});
    }
    return out;
  }
  Result<PowerLawPcc> pcc = PredictPcc(graph, kind, reference_tokens);
  if (!pcc.ok()) return pcc.status();
  for (double tokens : token_grid) {
    out.push_back({tokens, pcc.value().EvalRunTime(tokens)});
  }
  return out;
}

Result<double> Tasq::PredictRuntime(const JobGraph& graph, ModelKind kind,
                                    double reference_tokens,
                                    double tokens) const {
  Result<std::vector<PccSample>> curve =
      PredictCurve(graph, kind, reference_tokens, {tokens});
  if (!curve.ok()) return curve.status();
  return curve.value()[0].runtime_seconds;
}

Result<TokenRecommendation> Tasq::RecommendTokens(
    const JobGraph& graph, ModelKind kind, double reference_tokens,
    double min_improvement_percent, double max_slowdown_fraction) const {
  Status valid = ValidateReferenceTokens(reference_tokens);
  if (!valid.ok()) return valid;
  if (!std::isfinite(min_improvement_percent) ||
      !std::isfinite(max_slowdown_fraction)) {
    return Status::InvalidArgument(
        "improvement and slowdown bounds must be finite");
  }
  if (kind == ModelKind::kXgboostSs) {
    Result<SmoothingSpline> spline =
        PredictSmoothedCurve(graph, reference_tokens);
    if (!spline.ok()) return spline.status();
    return RecommendFromSpline(spline.value(), reference_tokens,
                               min_improvement_percent, max_slowdown_fraction);
  }
  Result<PowerLawPcc> pcc = PredictPcc(graph, kind, reference_tokens);
  if (!pcc.ok()) return pcc.status();
  return RecommendFromPowerLaw(pcc.value(), reference_tokens,
                               min_improvement_percent, max_slowdown_fraction);
}

TokenRecommendation RecommendFromPowerLaw(const PowerLawPcc& pcc,
                                          double reference_tokens,
                                          double min_improvement_percent,
                                          double max_slowdown_fraction) {
  TokenRecommendation recommendation;
  double optimal = pcc.OptimalTokens(min_improvement_percent, reference_tokens);
  if (max_slowdown_fraction >= 0.0) {
    optimal = std::max(optimal, pcc.MinTokensForSlowdown(
                                    reference_tokens, max_slowdown_fraction));
  }
  recommendation.tokens = std::round(optimal);
  recommendation.predicted_runtime_seconds =
      pcc.EvalRunTime(recommendation.tokens);
  double reference_runtime = pcc.EvalRunTime(reference_tokens);
  recommendation.predicted_slowdown =
      reference_runtime > 0.0
          ? recommendation.predicted_runtime_seconds / reference_runtime - 1.0
          : 0.0;
  return recommendation;
}

Result<TokenRecommendation> RecommendFromSpline(
    const SmoothingSpline& spline, double reference_tokens,
    double min_improvement_percent, double max_slowdown_fraction) {
  double lo = std::max(1.0, reference_tokens * 0.2);
  std::vector<PccSample> curve;
  curve.reserve(17);
  for (int i = 0; i < 17; ++i) {
    double tokens = lo + (reference_tokens - lo) * i / 16.0;
    curve.push_back({tokens, spline.Eval(tokens)});
  }
  Result<double> tokens =
      OptimalTokensFromSamples(curve, min_improvement_percent);
  if (!tokens.ok()) return tokens.status();
  double chosen = tokens.value();
  if (max_slowdown_fraction >= 0.0) {
    // Descend the sampled curve (sorted ascending in tokens) from the
    // reference: the smallest allocation that still clears the marginal
    // threshold AND keeps runtime within the user's slowdown bound wins;
    // the first violation stops the walk.
    double allowed =
        curve.back().runtime_seconds * (1.0 + max_slowdown_fraction);
    double best = reference_tokens;
    for (auto it = curve.rbegin(); it != curve.rend(); ++it) {
      if (it->runtime_seconds > allowed || it->tokens + 1e-9 < chosen) {
        break;
      }
      best = it->tokens;
    }
    chosen = best;
  }
  TokenRecommendation recommendation;
  recommendation.tokens = std::round(chosen);
  recommendation.predicted_runtime_seconds =
      spline.Eval(recommendation.tokens);
  double reference_runtime = spline.Eval(reference_tokens);
  recommendation.predicted_slowdown =
      reference_runtime > 0.0
          ? recommendation.predicted_runtime_seconds / reference_runtime - 1.0
          : 0.0;
  return recommendation;
}

Status Tasq::PredictPccBatchInto(const JobGraph* const* graphs, size_t count,
                                 ModelKind kind,
                                 const double* reference_tokens,
                                 TasqBatchScratch& scratch,
                                 PowerLawPcc* out) const {
  if (!impl_->trained) {
    return Status::FailedPrecondition("pipeline has not been trained");
  }
  for (size_t i = 0; i < count; ++i) {
    if (graphs[i] == nullptr) {
      return Status::InvalidArgument("null graph in batch");
    }
    Status valid = ValidateReferenceTokens(reference_tokens[i]);
    if (!valid.ok()) return valid;
  }
  // NN and XGBoost-PL read only the standardized job-level rows, built
  // straight into the reused scratch matrix.
  constexpr size_t dim = Featurizer::kJobFeatureDim;
  auto scale_rows = [&]() -> Status {
    scratch.rows.resize(count * dim);
    for (size_t i = 0; i < count; ++i) {
      Status featurized =
          impl_->ScaledJobRow(*graphs[i], scratch.rows.data() + i * dim);
      if (!featurized.ok()) return featurized;
    }
    return Status::Ok();
  };
  switch (kind) {
    case ModelKind::kXgboostSs:
      return Status::InvalidArgument(
          "XGBoost SS has no parametric PCC; use PredictCurve");
    case ModelKind::kXgboostPl: {
      if (impl_->xgb == nullptr) {
        return Status::FailedPrecondition("XGBoost model was not trained");
      }
      Status scaled = scale_rows();
      if (!scaled.ok()) return scaled;
      for (size_t i = 0; i < count; ++i) {
        const double* row = scratch.rows.data() + i * dim;
        Result<PowerLawPcc> pcc = impl_->xgb->PredictPowerLawPcc(
            std::vector<double>(row, row + dim), reference_tokens[i]);
        if (!pcc.ok()) return pcc.status();
        out[i] = pcc.value();
      }
      return Status::Ok();
    }
    case ModelKind::kNn: {
      if (impl_->nn == nullptr) {
        return Status::FailedPrecondition("NN model was not trained");
      }
      if (impl_->nn->input_dim() != dim) {
        return Status::InvalidArgument("feature matrix size mismatch");
      }
      Status scaled = scale_rows();
      if (!scaled.ok()) return scaled;
      // One forward pass over the stacked rows. Row i of a batched matrix
      // product accumulates in exactly the per-row order, so results are
      // bit-identical to a batch of one.
      return impl_->nn->PredictBatchInto(scratch.rows.data(), count,
                                         scratch.nn, out);
    }
    case ModelKind::kGnn: {
      if (impl_->gnn == nullptr) {
        return Status::FailedPrecondition("GNN model was not trained");
      }
      // One forward pass over the batch's graphs; each result equals a
      // batch of one.
      std::vector<GraphExample> examples(count);
      for (size_t i = 0; i < count; ++i) {
        Status featurized = impl_->GnnExample(*graphs[i], examples[i]);
        if (!featurized.ok()) return featurized;
      }
      return impl_->gnn->PredictBatchInto(examples.data(), count, out);
    }
  }
  return Status::Internal("unknown model kind");
}

}  // namespace tasq
