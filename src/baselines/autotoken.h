#ifndef TASQ_BASELINES_AUTOTOKEN_H_
#define TASQ_BASELINES_AUTOTOKEN_H_

#include <map>
#include <vector>

#include "common/status.h"
#include "tasq/dataset.h"

namespace tasq {

/// The AutoToken baseline (paper §6.2): group recurring jobs by signature
/// and train an individual off-the-shelf model per group that predicts the
/// group's *peak* token allocation from compile-time job metadata (here: a
/// per-group linear regression of peak tokens on the log total estimated
/// cost, the data-size proxy). Faithfully limited like the original:
///  * covers only recurring jobs with enough history (no ad-hoc coverage);
///  * predicts a single peak number — no run-time / what-if predictions.
class AutoToken {
 public:
  /// Trains the per-group models from observed historical runs.
  TASQ_NODISCARD Status Train(const std::vector<ObservedJob>& observed);

  /// Predicts the peak-token allocation for a job. NotFound for ad-hoc
  /// jobs or groups with insufficient history (the baseline's documented
  /// coverage gap).
  TASQ_NODISCARD Result<double> PredictPeakTokens(const Job& job) const;

  size_t num_groups() const { return models_.size(); }
  bool trained() const { return trained_; }

 private:
  struct GroupModel {
    /// peak = intercept + slope * log(cost_total).
    double slope = 0.0;
    double intercept = 0.0;
    /// Fallback when the regression is degenerate: the mean peak.
    double mean_peak = 1.0;
    bool use_regression = false;
  };

  static double DataSizeFeature(const Job& job);

  bool trained_ = false;
  std::map<int, GroupModel> models_;
};

}  // namespace tasq

#endif  // TASQ_BASELINES_AUTOTOKEN_H_
