#ifndef TASQ_SIMCLUSTER_CLUSTER_SIMULATOR_H_
#define TASQ_SIMCLUSTER_CLUSTER_SIMULATOR_H_

#include <cstdint>

#include "common/status.h"
#include "simcluster/job_plan.h"
#include "skyline/skyline.h"

namespace tasq {

/// Stochastic run-to-run variation of the simulated cluster. With
/// `enabled == false` every run of a plan at a given token count is
/// identical; with it on, task durations jitter, a small fraction of tasks
/// straggle, and tasks can fail and retry — the anomalies the paper's §5.1
/// flighting filters exist to catch.
struct NoiseModel {
  bool enabled = false;
  /// Sigma of the multiplicative log-normal per-task duration jitter.
  double duration_jitter_sigma = 0.06;
  /// Per-task probability of straggling (running twice as long).
  double straggler_probability = 0.01;
  /// Per-task probability of failing once; a failed task loses a uniform
  /// [20%, 80%] fraction of its duration before retrying from scratch.
  double failure_probability = 0.002;
  /// Sigma of the per-run multiplicative noise on *recorded token usage*
  /// (containers holding tokens while idle, telemetry accounting). This
  /// perturbs the skyline's area between runs of the same job without
  /// proportionally moving the run time — the phenomenon behind the
  /// paper's Figure-12 area deviations.
  double usage_scale_sigma = 0.10;
  /// Per-run probability of a gross usage-accounting outlier (the skyline
  /// inflated by 1.5-2.5x, possibly exceeding the allocation — the errant
  /// jobs the paper's flighting filter (2) discards).
  double usage_outlier_probability = 0.03;
};

/// Configuration for one simulated run (one "flight") of a job.
struct RunConfig {
  /// Allocated tokens: the scheduler never runs more concurrent tasks.
  /// Must be >= 1.
  double tokens = 1.0;
  NoiseModel noise;
  /// Seed for the noise draws; distinct seeds model distinct flights.
  uint64_t seed = 0;
};

/// Outcome of a simulated run.
struct RunResult {
  /// Token usage per 1-second tick (time-weighted within each tick, so the
  /// skyline area equals the work actually executed).
  Skyline skyline;
  /// Exact (continuous) makespan in seconds.
  double runtime_seconds = 0.0;
  /// Maximum concurrent tasks observed.
  double peak_tokens_used = 0.0;
};

/// Discrete-event simulator of a SCOPE-like cluster executing one job on a
/// fixed token allocation. This is the substitute for the Cosmos production
/// cluster and its job-flighting capability (see DESIGN.md):
///
///  * a work-conserving scheduler starts ready tasks FIFO whenever a token
///    is free, respecting stage barriers;
///  * each task occupies exactly one token for its (possibly noisy)
///    duration;
///  * the recorded skyline is the busy-token count rasterized to 1-second
///    ticks.
///
/// Because tasks neither appear nor disappear with the allocation, the area
/// under the skyline (total task-seconds) is invariant to `tokens` up to
/// noise — exactly the AREPAS assumption — while stage barriers produce the
/// peaks and valleys of real skylines.
class ClusterSimulator {
 public:
  ClusterSimulator() = default;

  /// Runs `plan` under `config`. Fails on an invalid plan or tokens < 1.
  TASQ_NODISCARD Result<RunResult> Run(const JobPlan& plan, const RunConfig& config) const;
};

}  // namespace tasq

#endif  // TASQ_SIMCLUSTER_CLUSTER_SIMULATOR_H_
