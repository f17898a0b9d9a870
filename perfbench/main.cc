// TASQ benchmark binary. One invocation runs one workload for one seed and
// prints, as its last stdout line, a JSON object with the operations it
// attempted, how many failed (output-check mismatches included), and its
// metrics by name. perfbench/run.py builds this binary, runs it, and turns
// that line into the benchmark's result (units from BENCHMARK.json).
//
//   tasq_perfbench --workload serve_adhoc --seed 3 --seconds 10 --trace 0

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: tasq_perfbench --workload "
               "serve_recurring|serve_adhoc|train|allocate --seed N "
               "--seconds S --trace 0|1\n");
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions& options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options.trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, options)) {
    Usage();
    return 2;
  }
  perfbench::Outcome outcome;
  if (options.workload == "serve_recurring") {
    perfbench::RunServeRecurring(options, outcome);
  } else if (options.workload == "serve_adhoc") {
    perfbench::RunServeAdhoc(options, outcome);
  } else if (options.workload == "train") {
    perfbench::RunTrain(options, outcome);
  } else if (options.workload == "allocate") {
    perfbench::RunAllocate(options, outcome);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    Usage();
    return 2;
  }

  for (const std::string& note : outcome.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::string metrics;
  for (const auto& [name, value] : outcome.metrics) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      return 1;
    }
    char entry[160];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": %.17g",
                  metrics.empty() ? "" : ", ", name.c_str(), value);
    metrics += entry;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return 0;
}
