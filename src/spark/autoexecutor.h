#ifndef TASQ_SPARK_AUTOEXECUTOR_H_
#define TASQ_SPARK_AUTOEXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "nn/nn_model.h"
#include "simcluster/cluster_simulator.h"
#include "workload/job_graph.h"

namespace tasq {

/// Spark-platform parameters for the AutoExecutor adaptation (paper §2.3:
/// the companion work applies TASQ's recipe to choosing the number of
/// executors for Spark SQL queries). An executor bundles several task
/// slots; allocation granularity is whole executors.
struct SparkPlatformConfig {
  /// Concurrent task slots per executor.
  int cores_per_executor = 4;
  /// Upper bound on executors a query may request.
  int max_executors = 256;
};

/// Result of one simulated Spark run, with the skyline measured in
/// *executor* units (busy cores / cores per executor).
struct ExecutorRunResult {
  Skyline executor_skyline;
  double runtime_seconds = 0.0;
  double peak_executors_used = 0.0;
};

/// Runs `plan` on `executors` executors of the configured width. The
/// underlying engine is the same discrete-event simulator; only the
/// resource unit changes — exactly the platform-specific swap the paper
/// describes (resource unit, simulator, functional form).
TASQ_NODISCARD Result<ExecutorRunResult> RunOnExecutors(const JobPlan& plan, int executors,
                                         const SparkPlatformConfig& platform,
                                         const NoiseModel& noise = {},
                                         uint64_t seed = 0);

/// Options for AutoExecutor training.
struct AutoExecutorOptions {
  SparkPlatformConfig platform;
  NnOptions nn;
  uint64_t seed = 1;
};

/// AutoExecutor: TASQ's recipe re-instantiated for Spark SQL (paper §2.3
/// and the AutoExecutor companion paper): observe each query once at its
/// default executor count, then train a Tasq pipeline restricted to the
/// NN on those observations — AREPAS synthesizes the executor-PCC from the
/// executor skyline, power-law targets are fitted, and the NN predicts the
/// PCC — in executors — for unseen queries.
class AutoExecutor {
 public:
  explicit AutoExecutor(AutoExecutorOptions options = {});
  ~AutoExecutor();
  AutoExecutor(AutoExecutor&&) noexcept;
  AutoExecutor& operator=(AutoExecutor&&) noexcept;

  /// Trains from a workload of jobs (each job's default executor count is
  /// derived from its default token request and the executor width).
  TASQ_NODISCARD Status Train(const std::vector<Job>& jobs);

  /// Predicts the executor-PCC (runtime = b * executors^a) for an unseen
  /// query. Monotone non-increasing by construction.
  TASQ_NODISCARD Result<PowerLawPcc> PredictPcc(const JobGraph& graph) const;

  /// Recommends the minimum executor count whose marginal improvement
  /// stays above `min_improvement_percent` per executor, capped at
  /// `max_executors` (or the platform cap, whichever is smaller).
  TASQ_NODISCARD Result<int> RecommendExecutors(const JobGraph& graph, int max_executors,
                                 double min_improvement_percent = 1.0) const;

  bool trained() const;
  const AutoExecutorOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tasq

#endif  // TASQ_SPARK_AUTOEXECUTOR_H_
