// Serving-layer microbenchmark: throughput of PccServer at 1/2/8 worker
// threads on a cold cache (every request unique) and on a warm,
// 90%-recurring workload (the regime the paper targets — §2.2 scores
// recurring jobs at submission time), plus cache hit ratios, the
// TryScoreCached zero-allocation fast path, and the full ServerStats
// block for the largest run. Headline numbers also land in
// BENCH_serving.json (ROADMAP item 5: the machine-diffable perf
// trajectory) — req/s cold/warm per thread count, end-to-end p50/p99,
// and measured allocations/request (the binary links the counting
// operator new from tests/alloc_counter.h).
//
// Results are hardware-dependent: thread scaling tracks the number of
// physical cores ctest/bench can actually use.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "alloc_counter.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "serve/server.h"

namespace tasq {
namespace {

struct StreamRun {
  double seconds = 0.0;
  ServerStats stats;
};

StreamRun RunStream(const Tasq& pipeline,
                    const std::vector<ScoreRequest>& stream,
                    unsigned num_threads, size_t cache_capacity) {
  PccServerOptions options;
  options.num_threads = num_threads;
  options.queue_capacity = 64;
  options.max_batch = 16;
  options.cache_capacity = cache_capacity;
  PccServer server(pipeline, options);
  auto start = std::chrono::steady_clock::now();
  std::vector<Result<WhatIfReport>> results =
      server.ScoreBatch(stream);  // Submits everything, waits for all.
  StreamRun run;
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  for (const auto& result : results) {
    if (!result.ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  }
  server.Shutdown();
  run.stats = server.Stats();
  return run;
}

void PrintRow(unsigned threads, const StreamRun& run, double baseline_rps) {
  double rps = static_cast<double>(run.stats.completed) / run.seconds;
  uint64_t lookups = run.stats.cache_hits + run.stats.cache_misses;
  double hit_ratio = lookups > 0 ? static_cast<double>(run.stats.cache_hits) /
                                       static_cast<double>(lookups)
                                 : 0.0;
  std::printf("  %u thread%s: %8.0f req/s  (%.2fx)   cache hits %.0f%%\n",
              threads, threads == 1 ? " " : "s", rps, rps / baseline_rps,
              100.0 * hit_ratio);
}

}  // namespace
}  // namespace tasq

int main() {
  using namespace tasq;
  using namespace tasq::bench;

  auto generator = MakeGenerator(7);
  std::printf("training pipeline...\n");
  TasqOptions options;
  options.nn.epochs = 40;
  options.gnn.epochs = 2;
  options.gnn.gcn_hidden = {8};
  options.gnn.head_hidden = {8};
  options.xgb.gbdt.num_trees = 40;
  Tasq pipeline(options);
  auto observed = ObserveJobs(generator, 0, 300, 1);
  if (!pipeline.Train(observed).ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }

  auto make_request = [&](int64_t job_id) {
    Job job = generator.GenerateJob(job_id);
    ScoreRequest request;
    request.graph = job.graph;
    request.model = ModelKind::kNn;
    request.reference_tokens = job.default_tokens;
    return request;
  };

  // Cold cache: every request is a distinct job, so every request pays one
  // model inference (batched across a worker's pull).
  const int64_t kColdRequests = 240;
  std::vector<ScoreRequest> cold;
  for (int64_t i = 0; i < kColdRequests; ++i) {
    cold.push_back(make_request(2000 + i));
  }
  BenchJson json;
  json.SetString("bench", "serving");
  json.Set("cold_requests", static_cast<uint64_t>(kColdRequests));

  std::printf("\ncold cache, %lld unique requests:\n",
              static_cast<long long>(kColdRequests));
  double cold_baseline = 0.0;
  for (unsigned threads : {1u, 2u, 8u}) {
    StreamRun run = RunStream(pipeline, cold, threads, /*cache_capacity=*/0);
    double rps = static_cast<double>(run.stats.completed) / run.seconds;
    if (threads == 1) cold_baseline = rps;
    PrintRow(threads, run, cold_baseline);
    char key[48];
    std::snprintf(key, sizeof(key), "cold_req_per_s_t%u", threads);
    json.Set(key, rps);
  }

  // Cold submit path allocations/request: one thread, cache off, the
  // request stream moved in so only serving-side work is measured —
  // promise/future machinery, queue entries, featurization, NN inference,
  // report assembly. The worker-owned BatchScratch plus the
  // scratch-reusing featurize/inference path hold this to the
  // single-digit steady-state budget enforced by tests/hot_path_test.cc.
  {
    std::vector<ScoreRequest> stream = cold;  // Copy outside the meter.
    PccServerOptions cold_options;
    cold_options.num_threads = 1;
    cold_options.queue_capacity = 64;
    cold_options.max_batch = 16;
    cold_options.cache_capacity = 0;
    PccServer server(pipeline, cold_options);
    uint64_t allocations_before = tasq_test::AllocationCount();
    std::vector<Result<WhatIfReport>> results =
        server.ScoreBatch(std::move(stream));
    uint64_t allocations = tasq_test::AllocationCount() - allocations_before;
    for (const auto& result : results) {
      if (!result.ok()) {
        std::fprintf(stderr, "cold request failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
    }
    double per_request = static_cast<double>(allocations) /
                         static_cast<double>(results.size());
    std::printf("\ncold submit path: %.2f allocations/request "
                "(1 thread, cache off)\n",
                per_request);
    json.Set("cold_submit_allocations_per_request", per_request);
  }

  // Warm workload: 90% of requests recur from a 24-job working set (cache
  // hits after first touch), 10% are fresh jobs — the recurring-job regime
  // the fingerprint cache is built for.
  const int64_t kWarmRequests = 600;
  const int64_t kWorkingSet = 24;
  Rng rng(41);
  std::vector<ScoreRequest> warm;
  int64_t next_fresh = 5000;
  for (int64_t i = 0; i < kWarmRequests; ++i) {
    if (rng.Uniform(0.0, 1.0) < 0.9) {
      int64_t pick = static_cast<int64_t>(
          rng.Uniform(0.0, static_cast<double>(kWorkingSet) - 0.001));
      warm.push_back(make_request(4000 + pick));
    } else {
      warm.push_back(make_request(next_fresh++));
    }
  }
  std::printf("\nwarm workload, %lld requests (90%% from a %lld-job "
              "working set):\n",
              static_cast<long long>(kWarmRequests),
              static_cast<long long>(kWorkingSet));
  json.Set("warm_requests", static_cast<uint64_t>(kWarmRequests));
  json.Set("warm_working_set", static_cast<uint64_t>(kWorkingSet));
  StreamRun last;
  for (unsigned threads : {1u, 2u, 8u}) {
    uint64_t allocations_before = tasq_test::AllocationCount();
    last = RunStream(pipeline, warm, threads, /*cache_capacity=*/4096);
    uint64_t allocations =
        tasq_test::AllocationCount() - allocations_before;
    PrintRow(threads, last, cold_baseline);
    char key[48];
    std::snprintf(key, sizeof(key), "warm_req_per_s_t%u", threads);
    json.Set(key, static_cast<double>(last.stats.completed) / last.seconds);
    if (threads == 8) {
      // Submit-path cost of the mixed 90/10 workload: futures, queue
      // entries, inference scratch — everything, process-wide.
      json.Set("warm_submit_allocations_per_request",
               static_cast<double>(allocations) /
                   static_cast<double>(last.stats.completed));
    }
  }
  // End-to-end latency distribution of the largest warm run (ms -> ns).
  json.Set("warm_p50_ns", last.stats.end_to_end.p50_ms() * 1e6);
  json.Set("warm_p99_ns", last.stats.end_to_end.p99_ms() * 1e6);
  json.Set("warm_max_ns", last.stats.end_to_end.max_ms * 1e6);
  json.Set("warm_mean_ns", last.stats.end_to_end.mean_ms() * 1e6);

  // The TASQ_HOT fast path: synchronous TryScoreCached against a primed
  // cache with one reused report buffer — the zero-allocation serving
  // loop that `tasq_check.py hot` and tests/hot_path_test.cc enforce.
  {
    PccServerOptions options;
    options.num_threads = 1;
    options.cache_capacity = 4096;
    PccServer server(pipeline, options);
    std::vector<ScoreRequest> working_set;
    for (int64_t i = 0; i < kWorkingSet; ++i) {
      working_set.push_back(make_request(4000 + i));
    }
    for (const ScoreRequest& request : working_set) {
      Result<WhatIfReport> primed = server.Score(request);
      if (!primed.ok()) {
        std::fprintf(stderr, "priming failed: %s\n",
                     primed.status().ToString().c_str());
        return 1;
      }
    }
    WhatIfReport buffer;
    (void)server.TryScoreCached(working_set[0], &buffer);  // Warm buffer.
    const int64_t kFastRequests = 200000;
    uint64_t allocations_before = tasq_test::AllocationCount();
    auto start = std::chrono::steady_clock::now();
    int64_t hits = 0;
    for (int64_t i = 0; i < kFastRequests; ++i) {
      hits += server.TryScoreCached(
          working_set[static_cast<size_t>(i % kWorkingSet)], &buffer);
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    uint64_t allocations =
        tasq_test::AllocationCount() - allocations_before;
    double fast_rps = static_cast<double>(hits) / seconds;
    double allocations_per_request =
        static_cast<double>(allocations) / static_cast<double>(kFastRequests);
    ServerStats stats = server.Stats();
    std::printf("\nfast path (TryScoreCached, warm cache, 1 thread):\n"
                "  %12.0f req/s   p50 %.0f ns   p99 %.0f ns   "
                "%.4f allocations/request\n",
                fast_rps, stats.end_to_end.p50_ms() * 1e6,
                stats.end_to_end.p99_ms() * 1e6, allocations_per_request);
    json.Set("fastpath_requests", static_cast<uint64_t>(kFastRequests));
    json.Set("fastpath_req_per_s", fast_rps);
    json.Set("fastpath_p50_ns", stats.end_to_end.p50_ms() * 1e6);
    json.Set("fastpath_p99_ns", stats.end_to_end.p99_ms() * 1e6);
    json.Set("fastpath_allocations_per_request", allocations_per_request);
  }

  std::printf("\nserver stats (warm, 8 threads):\n%s",
              last.stats.ToText().c_str());
  if (json.WriteFile("BENCH_serving.json")) {
    std::printf("\nwrote BENCH_serving.json\n");
  }
  return 0;
}
