#ifndef TASQ_BENCH_BENCH_UTIL_H_
#define TASQ_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "arepas/arepas.h"
#include "common/stats.h"
#include "common/table.h"
#include "pcc/pcc.h"
#include "selection/flighting.h"
#include "tasq/dataset.h"
#include "tasq/tasq.h"
#include "workload/generator.h"

namespace tasq::bench {

/// Experiment sizes shared by the bench binaries. Every size scales with
/// the TASQ_SCALE environment variable (default 1.0), so
/// `TASQ_SCALE=10 ./table04_06_models` runs a 10x larger experiment.
struct BenchSizes {
  int64_t train_jobs;
  int64_t test_jobs;
  int64_t survey_jobs;   ///< For workload-level surveys (Fig 2, Fig 11).
  int64_t flight_jobs;   ///< Jobs flighted at multiple token counts.

  static BenchSizes FromEnv() { return AtScale(ScaleFromEnv()); }

  static BenchSizes AtScale(double scale) {
    auto scaled = [scale](double base) {
      return static_cast<int64_t>(base * scale);
    };
    BenchSizes sizes;
    sizes.train_jobs = std::max<int64_t>(200, scaled(1200));
    sizes.test_jobs = std::max<int64_t>(60, scaled(300));
    sizes.survey_jobs = std::max<int64_t>(100, scaled(800));
    sizes.flight_jobs = std::max<int64_t>(30, scaled(120));
    return sizes;
  }
};

/// The canonical bench workload: fixed seed so every binary sees the same
/// jobs.
inline WorkloadGenerator MakeGenerator(uint64_t seed = 7) {
  WorkloadConfig config;
  config.seed = seed;
  return WorkloadGenerator(config);
}

/// Observes `count` jobs starting at `first_id` with production-like noise.
inline std::vector<ObservedJob> ObserveJobs(const WorkloadGenerator& generator,
                                            int64_t first_id, int64_t count,
                                            uint64_t seed, bool noisy = true) {
  NoiseModel noise;
  noise.enabled = noisy;
  auto observed =
      ObserveWorkload(generator.Generate(first_id, count), noise, seed);
  if (!observed.ok()) {
    std::fprintf(stderr, "observation failed: %s\n",
                 observed.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(observed.value());
}

/// Aborts the bench with a message when a Result is an error.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result.value());
}

/// AREPAS validation data shared by Figure 12/13 and Table 3: flight jobs
/// at several token counts, then compare AREPAS's prediction (simulated
/// from the largest-allocation flight's skyline) against each smaller
/// flight's measured run time.
struct ArepasValidation {
  std::vector<FlightedJob> flighted;
  std::vector<const FlightedJob*> non_anomalous;
  /// Jobs among non_anomalous whose executions all conserve area within
  /// 30% (zero outliers) — the paper's "fully-matched" subset.
  std::vector<const FlightedJob*> fully_matched;
  /// Per-execution percent errors, one entry per (job, lower flight).
  std::vector<double> errors_non_anomalous;
  std::vector<double> errors_fully_matched;
  /// Per-job median percent errors.
  std::vector<double> per_job_error_non_anomalous;
  std::vector<double> per_job_error_fully_matched;
};

inline ArepasValidation RunArepasValidation(int64_t first_id, int64_t count,
                                            uint64_t seed) {
  auto generator = MakeGenerator();
  FlightConfig config;
  config.seed = seed;
  FlightHarness harness(config);
  ArepasValidation validation;
  validation.flighted = harness.FlightJobs(generator.Generate(first_id, count));

  Arepas arepas;
  for (const FlightedJob& job : validation.flighted) {
    if (!job.NonAnomalous() || job.flights.size() < 2) continue;
    validation.non_anomalous.push_back(&job);
    std::vector<Skyline> skylines;
    for (const FlightRecord& record : job.flights) {
      skylines.push_back(record.skyline);
    }
    bool fully_matched = CountAreaOutliers(skylines, 30.0) == 0;
    if (fully_matched) validation.fully_matched.push_back(&job);

    const FlightRecord& reference = job.flights.front();
    std::vector<double> job_errors;
    for (size_t f = 1; f < job.flights.size(); ++f) {
      const FlightRecord& flight = job.flights[f];
      Result<double> predicted =
          arepas.SimulateRunTimeSeconds(reference.skyline, flight.tokens);
      if (!predicted.ok() || flight.runtime_seconds <= 0.0) continue;
      double error = std::fabs(predicted.value() - flight.runtime_seconds) /
                     flight.runtime_seconds * 100.0;
      job_errors.push_back(error);
      validation.errors_non_anomalous.push_back(error);
      if (fully_matched) validation.errors_fully_matched.push_back(error);
    }
    if (!job_errors.empty()) {
      double median = Median(job_errors);
      validation.per_job_error_non_anomalous.push_back(median);
      if (fully_matched) {
        validation.per_job_error_fully_matched.push_back(median);
      }
    }
  }
  return validation;
}

/// One model's Table-8 metrics against flighted ground truth.
struct FlightedModelEval {
  /// Percent of jobs whose predicted curve is monotone non-increasing.
  double pattern_percent = 0.0;
  /// MAE of the scaled curve parameters against a power law fitted to each
  /// job's flights; negative for XGBoost-SS (no parametric form).
  double mae_params = -1.0;
  /// Median absolute percent error of the run time at every flight.
  double median_ae_runtime = 0.0;
  /// The same error per flight position (100/80/60/20% of the reference
  /// tokens), for positions any job reached.
  std::vector<double> per_flight_ae;
};

/// Scores `kind` against `flighted`, where flighted[j] holds the flights
/// of jobs[j] (FlightHarness::FlightJobs keeps the input order).
inline FlightedModelEval EvaluateOnFlights(
    const Tasq& pipeline, ModelKind kind,
    const std::vector<FlightedJob>& flighted, const std::vector<Job>& jobs) {
  if (flighted.size() != jobs.size()) {
    std::fprintf(stderr, "every job must have been flighted\n");
    std::exit(1);
  }
  const PccTargetScaling& scaling = *pipeline.target_scaling();
  std::vector<double> predicted_runtimes;
  std::vector<double> actual_runtimes;
  std::vector<std::vector<double>> per_flight_pred(4);
  std::vector<std::vector<double>> per_flight_actual(4);
  std::vector<double> param_errors;
  size_t monotone = 0;
  size_t jobs_evaluated = 0;
  for (size_t j = 0; j < flighted.size(); ++j) {
    const FlightedJob& fj = flighted[j];
    const Job& job = jobs[j];
    double reference = fj.reference_tokens;
    // Run-time predictions at every flighted token count.
    for (size_t f = 0; f < fj.flights.size(); ++f) {
      const FlightRecord& record = fj.flights[f];
      Result<double> prediction = pipeline.PredictRuntime(
          job.graph, kind, reference, record.tokens);
      if (!prediction.ok()) continue;
      predicted_runtimes.push_back(prediction.value());
      actual_runtimes.push_back(record.runtime_seconds);
      if (f < per_flight_pred.size()) {
        per_flight_pred[f].push_back(prediction.value());
        per_flight_actual[f].push_back(record.runtime_seconds);
      }
    }
    ++jobs_evaluated;
    // Pattern and curve parameters.
    if (kind == ModelKind::kXgboostSs) {
      std::vector<double> grid;
      for (const FlightRecord& record : fj.flights) {
        grid.push_back(record.tokens);
      }
      std::sort(grid.begin(), grid.end());
      Result<std::vector<PccSample>> curve =
          pipeline.PredictCurve(job.graph, kind, reference, grid);
      if (curve.ok() && IsCurveMonotoneNonIncreasing(curve.value())) {
        ++monotone;
      }
      continue;
    }
    Result<PowerLawPcc> predicted =
        pipeline.PredictPcc(job.graph, kind, reference);
    if (!predicted.ok()) continue;
    if (predicted.value().IsMonotoneNonIncreasing()) ++monotone;
    // Ground-truth curve parameters from the flighted runs.
    std::vector<PccSample> truth_samples;
    for (const FlightRecord& record : fj.flights) {
      truth_samples.push_back({record.tokens, record.runtime_seconds});
    }
    Result<PowerLawFit> truth = FitPowerLaw(truth_samples);
    if (!truth.ok()) continue;
    auto [p1, p2] = scaling.ToScaled(predicted.value());
    auto [t1, t2] = scaling.ToScaled(truth.value().pcc);
    double signed_p1 = predicted.value().IsMonotoneNonIncreasing() ? p1 : -p1;
    double signed_t1 = truth.value().pcc.IsMonotoneNonIncreasing() ? t1 : -t1;
    param_errors.push_back(
        0.5 * (std::fabs(signed_p1 - signed_t1) + std::fabs(p2 - t2)));
  }
  FlightedModelEval eval;
  eval.pattern_percent =
      100.0 * static_cast<double>(monotone) /
      static_cast<double>(std::max<size_t>(1, jobs_evaluated));
  eval.median_ae_runtime =
      MedianAbsolutePercentError(predicted_runtimes, actual_runtimes);
  if (!param_errors.empty()) eval.mae_params = Mean(param_errors);
  for (size_t f = 0; f < per_flight_pred.size(); ++f) {
    if (per_flight_pred[f].empty()) continue;
    eval.per_flight_ae.push_back(
        MedianAbsolutePercentError(per_flight_pred[f], per_flight_actual[f]));
  }
  return eval;
}

/// Minimal ordered JSON-object emitter for the BENCH_*.json perf
/// trajectory (ROADMAP item 5): each bench binary records its headline
/// numbers as one flat JSON object next to its human-readable stdout, so
/// successive runs (and CI artifacts) can be diffed mechanically.
/// Insertion order is preserved; keys are written exactly once (a repeated
/// Set overwrites). Values are numbers or strings — nesting is
/// deliberately unsupported, flat keys like "warm_req_per_s_t8" keep the
/// trajectory trivially greppable.
class BenchJson {
 public:
  void Set(const std::string& key, double value) {
    char buffer[64];
    // %.17g round-trips every double exactly.
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    Assign(key, buffer);
  }
  void Set(const std::string& key, uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(value));
    Assign(key, buffer);
  }
  void Set(const std::string& key, int value) {
    Set(key, static_cast<uint64_t>(value < 0 ? 0 : value));
  }
  void SetString(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    Assign(key, quoted);
  }

  std::string ToString() const {
    std::string out = "{\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out += "  \"" + entries_[i].first + "\": " + entries_[i].second;
      if (i + 1 < entries_.size()) out += ",";
      out += "\n";
    }
    out += "}\n";
    return out;
  }

  /// Writes the object to `path`; returns false (with a stderr note) on
  /// I/O failure so benches can keep printing rather than die.
  bool WriteFile(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::string text = ToString();
    size_t written = std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
    return written == text.size();
  }

 private:
  void Assign(const std::string& key, const std::string& rendered) {
    for (auto& entry : entries_) {
      if (entry.first == key) {
        entry.second = rendered;
        return;
      }
    }
    entries_.emplace_back(key, rendered);
  }

  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Default pipeline options tuned for bench-scale workloads.
inline TasqOptions BenchTasqOptions(LossForm loss_form = LossForm::kLF2) {
  TasqOptions options;
  options.nn.epochs = 150;
  options.nn.learning_rate = 2e-3;
  options.nn.loss_form = loss_form;
  options.gnn.epochs = 35;
  options.gnn.learning_rate = 2e-3;
  options.gnn.loss_form = loss_form;
  options.xgb.gbdt.num_trees = 120;
  return options;
}

}  // namespace tasq::bench

#endif  // TASQ_BENCH_BENCH_UTIL_H_
