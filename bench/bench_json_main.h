#ifndef TASQ_BENCH_BENCH_JSON_MAIN_H_
#define TASQ_BENCH_BENCH_JSON_MAIN_H_

// Shared custom main for the google-benchmark microbench binaries
// (ROADMAP item 5): run the registered benchmarks exactly as
// BENCHMARK_MAIN() would — console output, --benchmark_* flags — while
// also capturing each benchmark's ns/op (and items/s where reported)
// and writing them as one flat BenchJson object, so microbench_core and
// microbench_fmath feed the BENCH_*.json perf trajectory and
// scripts/bench_diff.py can diff runs mechanically.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/machine_stamp.h"

namespace tasq {

/// JSON keys must stay flat and greppable: "BM_FitPowerLaw/256" becomes
/// "BM_FitPowerLaw_256_ns_per_op".
inline std::string BenchKeySanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool word = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9');
    out += word ? c : '_';
  }
  return out;
}

/// Console reporter that additionally records (name, ns/op, items/s) for
/// every iteration report it prints.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double ns_per_op = 0.0;
    double items_per_second = 0.0;  // 0 when the bench reports none.
    /// User counters other than items_per_second, in report order. A
    /// bench that sets a counter named like a flat trajectory key (e.g.
    /// "nn_batch_rows_per_s") gets it written to the JSON verbatim.
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Captured captured;
      captured.name = run.benchmark_name();
      if (run.iterations > 0) {
        captured.ns_per_op = run.real_accumulated_time /
                             static_cast<double>(run.iterations) * 1e9;
      }
      for (const auto& [name, counter] : run.counters) {
        if (name == "items_per_second") {
          captured.items_per_second = counter.value;
        } else {
          captured.counters.emplace_back(name, counter.value);
        }
      }
      captured_.push_back(captured);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Captured>& captured() const { return captured_; }

 private:
  std::vector<Captured> captured_;
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body: run everything, then
/// write the captured measurements to `json_path` (repo-root-relative
/// when invoked from the repo root, matching the other BENCH emitters).
inline int RunBenchmarksAndWriteJson(int argc, char** argv,
                                     const std::string& source,
                                     const std::string& json_path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  bench::BenchJson json;
  json.SetString("bench", source);
  bench::SetMachineStamp(json);
  for (const JsonCaptureReporter::Captured& captured : reporter.captured()) {
    std::string key = BenchKeySanitize(captured.name);
    json.Set(key + "_ns_per_op", captured.ns_per_op);
    if (captured.items_per_second > 0.0) {
      json.Set(key + "_items_per_s", captured.items_per_second);
    }
    // Named counters land under their own (already flat) key, so a bench
    // can pin a headline metric name the perf trajectory greps for —
    // e.g. "nn_batch_rows_per_s" — instead of the BM_-derived key. A
    // name reused across benchmarks/args keeps the last value.
    for (const auto& [counter_key, value] : captured.counters) {
      json.Set(BenchKeySanitize(counter_key), value);
    }
  }
  if (!json.WriteFile(json_path)) return 1;
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace tasq

#endif  // TASQ_BENCH_BENCH_JSON_MAIN_H_
