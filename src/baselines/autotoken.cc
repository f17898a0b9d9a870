#include "baselines/autotoken.h"

#include <algorithm>
#include <cmath>

#include "common/fmath.h"
#include "common/stats.h"

namespace tasq {

/// Minimum prior runs a group needs before its model is trained.
constexpr int kMinHistory = 3;

double AutoToken::DataSizeFeature(const Job& job) {
  double cost = 0.0;
  if (!job.graph.operators.empty()) {
    cost = job.graph.operators.back().features.cost_total;
  }
  return CheckedLog1p(std::max(0.0, cost));
}

Status AutoToken::Train(const std::vector<ObservedJob>& observed) {
  if (observed.empty()) {
    return Status::InvalidArgument("cannot train AutoToken on zero jobs");
  }
  std::map<int, std::vector<const ObservedJob*>> groups;
  for (const ObservedJob& entry : observed) {
    if (entry.job.template_id >= 0) {
      groups[entry.job.template_id].push_back(&entry);
    }
  }
  models_.clear();
  for (const auto& [signature, members] : groups) {
    if (static_cast<int>(members.size()) < kMinHistory) continue;
    std::vector<double> x;
    std::vector<double> y;
    for (const ObservedJob* entry : members) {
      x.push_back(DataSizeFeature(entry->job));
      y.push_back(entry->peak_tokens);
    }
    GroupModel model;
    model.mean_peak = std::max(1.0, Mean(y));
    LineFit fit = FitLine(x, y);
    if (fit.ok && fit.r2 > 0.1) {
      model.slope = fit.slope;
      model.intercept = fit.intercept;
      model.use_regression = true;
    }
    models_[signature] = model;
  }
  trained_ = true;
  return Status::Ok();
}

Result<double> AutoToken::PredictPeakTokens(const Job& job) const {
  if (!trained_) {
    return Status::FailedPrecondition("AutoToken has not been trained");
  }
  if (job.template_id < 0) {
    return Status::NotFound("AutoToken does not cover ad-hoc jobs");
  }
  auto it = models_.find(job.template_id);
  if (it == models_.end()) {
    return Status::NotFound("job group has insufficient history");
  }
  const GroupModel& model = it->second;
  double prediction = model.use_regression
                          ? model.intercept +
                                model.slope * DataSizeFeature(job)
                          : model.mean_peak;
  if (!std::isfinite(prediction) || prediction < 1.0) {
    prediction = model.mean_peak;
  }
  return std::max(1.0, prediction);
}

}  // namespace tasq
