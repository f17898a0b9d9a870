#ifndef TASQ_TASQ_DATASET_H_
#define TASQ_TASQ_DATASET_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "feat/featurizer.h"
#include "gnn/gnn_model.h"
#include "pcc/pcc.h"
#include "simcluster/cluster_simulator.h"
#include "workload/job_graph.h"

namespace tasq {

/// One historical observation: a job that ran once at its requested token
/// count (all the telemetry a production repository has per job).
struct ObservedJob {
  Job job;
  /// The single observed resource-consumption skyline.
  Skyline skyline;
  double runtime_seconds = 0.0;
  /// Tokens the job was allocated (its reference token count).
  double observed_tokens = 0.0;
  /// Peak tokens actually used.
  double peak_tokens = 0.0;
};

/// Executes each job once at its default allocation on the simulated
/// cluster, producing the "historical" dataset. `noise` models production
/// variance; `seed` varies the noisy runs per job.
TASQ_NODISCARD Result<std::vector<ObservedJob>> ObserveWorkload(const std::vector<Job>& jobs,
                                                 const NoiseModel& noise,
                                                 uint64_t seed);

/// Options controlling training-set construction.
struct DatasetOptions {
  /// Fractions of the *observed* token count added as augmented point-
  /// prediction examples for XGBoost (paper §4.4: 60%, 80%, 100%).
  std::vector<double> point_fractions = {0.6, 0.8, 1.0};
  /// Fractions of the *peak* added as over-allocated examples with run
  /// time floored at the peak-allocation run time (paper: 120%, 140%).
  std::vector<double> over_peak_fractions = {1.2, 1.4};
};

/// A model-ready dataset: per-job features (unscaled), graphs, power-law
/// targets, and the AREPAS-augmented point-prediction set.
struct Dataset {
  size_t job_feature_dim = 0;
  size_t op_feature_dim = 0;

  // Per job (size N each).
  std::vector<int64_t> job_ids;
  std::vector<int> template_ids;
  std::vector<double> job_features;  ///< Row-major N x job_feature_dim.
  std::vector<GraphExample> graphs;  ///< Unscaled operator features.
  std::vector<PowerLawPcc> targets;  ///< Fit to each job's AREPAS curve.
  std::vector<double> observed_tokens;
  std::vector<double> observed_runtime;
  std::vector<double> peak_tokens;

  // AREPAS-augmented point-prediction examples (size M >= N).
  std::vector<double> point_features;  ///< Row-major M x job_feature_dim.
  std::vector<double> point_tokens;
  std::vector<double> point_runtimes;

  size_t size() const { return job_ids.size(); }
  size_t point_size() const { return point_tokens.size(); }
};

/// Builds a Dataset from observed jobs: featurizes each job, synthesizes
/// its PCC with AREPAS, fits the two-parameter power-law target, and emits
/// the augmented point-prediction examples. Jobs whose target cannot be
/// fitted (degenerate skylines) fall back to a flat curve at the observed
/// run time.
class DatasetBuilder {
 public:
  explicit DatasetBuilder(DatasetOptions options = {})
      : options_(std::move(options)) {}

  TASQ_NODISCARD Result<Dataset> Build(const std::vector<ObservedJob>& observed) const;

  const DatasetOptions& options() const { return options_; }

 private:
  DatasetOptions options_;
};

/// Standardizes a dataset in place with scalers fitted on (typically) the
/// training set: job-level features and per-node graph features. Returns
/// the fitted scalers so test sets can be transformed consistently.
struct DatasetScalers {
  FeatureScaler job_scaler;
  FeatureScaler op_scaler;
};
TASQ_NODISCARD Result<DatasetScalers> FitScalers(const Dataset& dataset);
void ApplyScalers(const DatasetScalers& scalers, Dataset& dataset);

}  // namespace tasq

#endif  // TASQ_TASQ_DATASET_H_
