// Shared pieces of the TASQ benchmark binary: clocks and percentiles, the
// per-layer ledger, the outcome every workload fills in, and the pipeline
// and workload helpers the workloads share. The benchmark reaches the system
// only through the public headers under src/.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "tasq/dataset.h"
#include "tasq/tasq.h"
#include "tasq/what_if.h"
#include "workload/generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double SecondsSince(Clock::time_point from) {
  return Seconds(from, Clock::now());
}

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Traced run: per-layer ledger instead of end-to-end metrics.
  bool trace = false;
};

/// What one workload run reports. `attempted` counts operations (requests,
/// training cycles, trace allocations) plus the output checks made on them;
/// `failed` counts those that failed or whose output did not match.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // First few failure messages.
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // Human-readable lines for the log.

  void Check(bool ok, const std::string& what);
  void Fail(const std::string& what);
  void Note(const char* format, ...) __attribute__((format(printf, 2, 3)));
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Per-layer ledger of the traced run. Each layer accumulates wall time,
/// calls, and heap allocations (the counting operator new) over the spans
/// recorded around calls into it.
class Ledger {
 public:
  struct Layer {
    double seconds = 0.0;
    uint64_t calls = 0;
    uint64_t allocations = 0;
  };

  /// Times one call into `layer` for the lifetime of the span.
  class Span {
   public:
    explicit Span(Layer& layer)
        : layer_(layer),
          allocations_(tasq_test::AllocationCount()),
          start_(Clock::now()) {}
    ~Span() {
      layer_.seconds += SecondsSince(start_);
      layer_.allocations += tasq_test::AllocationCount() - allocations_;
      ++layer_.calls;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Layer& layer_;
    uint64_t allocations_;
    Clock::time_point start_;
  };

  /// The layer named `name`, created empty on first use. References stay
  /// valid for the ledger's lifetime.
  Layer& operator[](const std::string& name) { return layers_[name]; }

  uint64_t TotalAllocations() const;

 private:
  std::map<std::string, Layer> layers_;
};

/// 64-bit FNV-1a digest over every field of a report, taken bit for bit
/// (doubles by their object representation), so two reports have equal
/// digests exactly when their bytes are equal, up to hash collisions.
uint64_t ReportDigest(const tasq::WhatIfReport& report);

/// The jobs of one run. Every run draws from the same workload (one
/// generator configuration, so one set of recurring templates); the seed
/// picks which jobs. Run `seed` owns a block of job ids, so the same seed
/// always gives the same jobs and different seeds give different ones,
/// while the mix of job shapes stays the workload's.
class JobSource {
 public:
  explicit JobSource(uint64_t seed);

  /// Jobs [offset, offset + count) of this run's block.
  std::vector<tasq::Job> Jobs(int64_t offset, int64_t count) const;

 private:
  tasq::WorkloadGenerator generator_;
  int64_t first_id_;
};

/// Jobs [0, kTrainJobs) of a run's block train its pipeline; the next
/// kHoldoutJobs are held out for holdout_ape_pct.
inline constexpr int64_t kTrainJobs = 300;
inline constexpr int64_t kHoldoutJobs = 200;

/// Prints `what: status` to stderr and exits 1: the run has no result.
[[noreturn]] void Die(const char* what, const tasq::Status& status);

/// Runs `jobs` once each on the simulated cluster with production-like
/// noise (the historical observations TASQ trains on).
tasq::Result<std::vector<tasq::ObservedJob>> Observe(
    const std::vector<tasq::Job>& jobs, uint64_t seed);

/// The run's held-out jobs, observed.
std::vector<tasq::ObservedJob> ObserveHoldout(uint64_t seed);

/// The pipeline the serving and allocate workloads score with, trained on
/// the run's training jobs at model sizes small enough to train in a
/// fraction of a second during set-up.
std::unique_ptr<tasq::Tasq> TrainServingPipeline(uint64_t seed);

/// Model sizes of the `train` workload: the repository's bench sizes.
tasq::TasqOptions TrainingModelOptions();

/// Median absolute percentage error of the NN-predicted run time at each
/// held-out job's observed tokens.
double HoldoutApePct(const tasq::Tasq& pipeline,
                     const std::vector<tasq::ObservedJob>& holdout);

// Workload entry points; each fills `outcome` for `options`.
void RunServeRecurring(const RunOptions& options, Outcome& outcome);
void RunServeAdhoc(const RunOptions& options, Outcome& outcome);
void RunTrain(const RunOptions& options, Outcome& outcome);
void RunAllocate(const RunOptions& options, Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
