#include "tasq/what_if.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "pcc/pcc.h"

namespace tasq {
namespace {

WhatIfPoint MakePoint(double tokens, double runtime, double reference_tokens,
                      double reference_runtime) {
  WhatIfPoint point;
  point.tokens = tokens;
  point.predicted_runtime_seconds = runtime;
  point.predicted_slowdown =
      reference_runtime > 0.0 ? runtime / reference_runtime - 1.0 : 0.0;
  point.token_savings_fraction =
      reference_tokens > 0.0 ? 1.0 - tokens / reference_tokens : 0.0;
  return point;
}

/// The one report assembly, behind both builders: the predicted curve on
/// `grid_points` (at least 3) evenly spaced counts from 20% of the
/// reference (floored at 1 token) up to the reference itself, its elbow,
/// and the two recommendations. `runtime_at(tokens)` reads the predicted
/// curve; `recommend(slo)` gives the recommendation at the 1%-per-token
/// bar, or the error that fails the report.
template <typename RuntimeAt, typename Recommend>
Result<WhatIfReport> AssembleReport(WhatIfReport report, size_t grid_points,
                                    RuntimeAt runtime_at, Recommend recommend) {
  grid_points = std::max<size_t>(3, grid_points);
  double reference_tokens = report.reference_tokens;
  double lo = std::max(1.0, reference_tokens * 0.2);
  std::vector<PccSample> curve;
  curve.reserve(grid_points);
  for (size_t i = 0; i < grid_points; ++i) {
    double tokens = lo + (reference_tokens - lo) * static_cast<double>(i) /
                             static_cast<double>(grid_points - 1);
    curve.push_back({tokens, runtime_at(tokens)});
  }
  double reference_runtime = curve.back().runtime_seconds;
  report.curve.reserve(curve.size());
  for (const PccSample& sample : curve) {
    report.curve.push_back(MakePoint(sample.tokens, sample.runtime_seconds,
                                     reference_tokens, reference_runtime));
  }
  Result<double> elbow = FindElbowTokens(std::move(curve));
  if (elbow.ok()) report.elbow_tokens = elbow.value();

  for (auto [slo, out] : {std::pair{-1.0, &report.aggressive},
                          std::pair{0.10, &report.bounded}}) {
    Result<TokenRecommendation> recommendation = recommend(slo);
    if (!recommendation.ok()) return recommendation.status();
    *out = MakePoint(recommendation.value().tokens,
                     recommendation.value().predicted_runtime_seconds,
                     reference_tokens, reference_runtime);
    // Slowdown is against the recommender's own run time at the
    // reference, which the last grid point need not hit exactly.
    out->predicted_slowdown = recommendation.value().predicted_slowdown;
  }
  return report;
}

}  // namespace

Status ValidateWhatIfRequest(double reference_tokens, size_t grid_points) {
  Status valid = ValidateReferenceTokens(reference_tokens);
  if (!valid.ok()) return valid;
  if (grid_points > kMaxWhatIfGridPoints) {
    return Status::InvalidArgument("grid points must be at most " +
                                   std::to_string(kMaxWhatIfGridPoints));
  }
  return Status::Ok();
}

Result<WhatIfReport> BuildWhatIfReport(const Tasq& tasq, const JobGraph& graph,
                                       ModelKind model,
                                       double reference_tokens,
                                       size_t grid_points) {
  Status valid = ValidateWhatIfRequest(reference_tokens, grid_points);
  if (!valid.ok()) return valid;

  if (model != ModelKind::kXgboostSs) {
    // Parametric models: one inference, then pure math. This is also the
    // path the serving layer replays from its cache and batches.
    Result<PowerLawPcc> pcc = tasq.PredictPcc(graph, model, reference_tokens);
    if (!pcc.ok()) return pcc.status();
    return BuildWhatIfReportFromPcc(pcc.value(), model, reference_tokens,
                                    grid_points);
  }

  // XGBoost-SS: no parametric form, so one spline plays the PCC's part.
  Result<SmoothingSpline> spline =
      tasq.PredictSmoothedCurve(graph, reference_tokens);
  if (!spline.ok()) return spline.status();
  WhatIfReport report;
  report.model = model;
  report.reference_tokens = reference_tokens;
  return AssembleReport(
      std::move(report), grid_points,
      [&](double tokens) { return spline.value().Eval(tokens); },
      [&](double slo) {
        return RecommendFromSpline(spline.value(), reference_tokens, 1.0, slo);
      });
}

Result<WhatIfReport> BuildWhatIfReportFromPcc(const PowerLawPcc& pcc,
                                              ModelKind model,
                                              double reference_tokens,
                                              size_t grid_points) {
  Status valid = ValidateWhatIfRequest(reference_tokens, grid_points);
  if (!valid.ok()) return valid;
  if (model == ModelKind::kXgboostSs) {
    return Status::InvalidArgument(
        "XGBoost SS has no parametric PCC; use BuildWhatIfReport");
  }
  WhatIfReport report;
  report.model = model;
  report.reference_tokens = reference_tokens;
  report.pcc = pcc;
  report.has_pcc = true;
  return AssembleReport(
      std::move(report), grid_points,
      [&](double tokens) { return pcc.EvalRunTime(tokens); },
      [&](double slo) {
        return RecommendFromPowerLaw(pcc, reference_tokens, 1.0, slo);
      });
}

std::string WhatIfReport::ToText() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "What-if report (%s), reference %.0f tokens\n",
                ModelKindName(model), reference_tokens);
  out += line;
  if (has_pcc) {
    std::snprintf(line, sizeof(line),
                  "predicted PCC: runtime = %.1f * tokens^(%.3f)\n", pcc.b,
                  pcc.a);
    out += line;
  }
  out += "  tokens  runtime(s)  slowdown  token savings\n";
  for (const WhatIfPoint& point : curve) {
    std::snprintf(line, sizeof(line), "  %6.0f  %10.0f  %+7.1f%%  %12.0f%%\n",
                  point.tokens, point.predicted_runtime_seconds,
                  100.0 * point.predicted_slowdown,
                  100.0 * point.token_savings_fraction);
    out += line;
  }
  if (elbow_tokens > 0.0) {
    std::snprintf(line, sizeof(line), "elbow: ~%.0f tokens\n", elbow_tokens);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "aggressive (1%%/token): %.0f tokens (%+.1f%% runtime)\n",
                aggressive.tokens, 100.0 * aggressive.predicted_slowdown);
  out += line;
  std::snprintf(line, sizeof(line),
                "bounded (<=10%% SLO):   %.0f tokens (%+.1f%% runtime)\n",
                bounded.tokens, 100.0 * bounded.predicted_slowdown);
  out += line;
  return out;
}

}  // namespace tasq
