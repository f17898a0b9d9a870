#ifndef TASQ_SELECTION_FLIGHTING_H_
#define TASQ_SELECTION_FLIGHTING_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "simcluster/cluster_simulator.h"
#include "workload/job_graph.h"

namespace tasq {

/// Fractions of a job's reference (default) token count that flighting
/// runs, in descending order (paper §5.1).
inline constexpr std::array<double, 4> kFlightTokenFractions = {
    1.0, 0.8, 0.6, 0.2};
static_assert(std::is_sorted(kFlightTokenFractions.begin(),
                             kFlightTokenFractions.end(), std::greater<>()));
/// Tolerance of the run-time monotonicity filter (filter 3), in percent.
inline constexpr double kFlightMonotoneTolerancePercent = 10.0;

/// Configuration for job flighting — re-executing selected jobs at several
/// token counts to gather ground truth (paper §5.1). On the real platform
/// this used SCOPE's pre-production flighting capability; here each flight
/// is a noisy cluster-simulator run.
struct FlightConfig {
  /// Runs per unique (job, tokens) flight, "to establish redundancy".
  int repetitions = 3;
  NoiseModel noise = {.enabled = true};
  uint64_t seed = 1234;
};

/// One unique flight: a (job, token count) pair with its representative
/// run time and skyline (the repetition with the median run time).
struct FlightRecord {
  int64_t job_id = 0;
  double tokens = 0.0;
  double runtime_seconds = 0.0;
  Skyline skyline;
  /// Run times of all repetitions of this flight.
  std::vector<double> repetition_runtimes;
};

/// All flights of one job, plus the §5.1 filter verdicts.
struct FlightedJob {
  int64_t job_id = 0;
  /// The job's reference (submitted) token count.
  double reference_tokens = 0.0;
  /// One record per flighted token count, descending tokens.
  std::vector<FlightRecord> flights;
  /// Filter (1): at least two successful flights.
  bool enough_flights = false;
  /// Filter (2): no flight used more tokens than allocated.
  bool within_allocation = false;
  /// Filter (3): run time monotonically non-increasing in tokens within
  /// the tolerance.
  bool monotone = false;

  bool NonAnomalous() const {
    return enough_flights && within_allocation && monotone;
  }
};

/// Executes the flighting protocol for a set of jobs on the simulated
/// cluster. Deterministic given the config seed.
class FlightHarness {
 public:
  explicit FlightHarness(FlightConfig config) : config_(std::move(config)) {}

  /// Flights one job at every kFlightTokenFractions entry.
  TASQ_NODISCARD Result<FlightedJob> FlightJob(const Job& job) const;

  /// Flights a batch; jobs whose simulation fails are skipped.
  std::vector<FlightedJob> FlightJobs(const std::vector<Job>& jobs) const;

  const FlightConfig& config() const { return config_; }

 private:
  FlightConfig config_;
};

}  // namespace tasq

#endif  // TASQ_SELECTION_FLIGHTING_H_
