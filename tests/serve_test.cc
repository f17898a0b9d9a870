// Tests of the concurrent PCC serving layer (src/serve): fingerprint-cache
// behavior, request validation, bounded-queue backpressure,
// graceful shutdown, and — most importantly — that batched/cached/
// concurrent serving is byte-identical to scoring sequentially.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "serve/cache.h"
#include "serve/latency_histogram.h"
#include "serve/server.h"
#include "tasq/what_if.h"
#include "workload/generator.h"

namespace tasq {
namespace {

// ---- ReportCache ---------------------------------------------------------

WhatIfReport TinyReport(double reference_tokens) {
  WhatIfReport report;
  report.reference_tokens = reference_tokens;
  return report;
}

// A counted lookup that discards the report.
bool Hit(ReportCache& cache, const ReportCacheKey& key) {
  WhatIfReport report;
  return cache.GetInto(key, &report);
}

TEST(ServeCacheTest, HitMissAndLruEviction) {
  ReportCache cache(2);
  ReportCacheKey a{1, ModelKind::kNn, 10.0, 9};
  ReportCacheKey b{2, ModelKind::kNn, 10.0, 9};
  ReportCacheKey c{3, ModelKind::kNn, 10.0, 9};

  EXPECT_FALSE(Hit(cache, a));
  cache.Put(a, TinyReport(1.0));
  cache.Put(b, TinyReport(2.0));
  ASSERT_TRUE(Hit(cache, a));  // Refreshes a's recency.
  WhatIfReport report;
  ASSERT_TRUE(cache.GetInto(a, &report));
  EXPECT_DOUBLE_EQ(report.reference_tokens, 1.0);
  cache.Put(c, TinyReport(3.0));  // Evicts b (least recently used), not a.
  EXPECT_TRUE(Hit(cache, a));
  EXPECT_FALSE(Hit(cache, b));
  EXPECT_TRUE(Hit(cache, c));

  ReportCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.size, 2u);
  EXPECT_EQ(counters.capacity, 2u);
  EXPECT_EQ(counters.hits, 4u);
  EXPECT_EQ(counters.misses, 2u);
}

TEST(ServeCacheTest, KeyDistinguishesEveryScoringKnob) {
  ReportCache cache(16);
  ReportCacheKey base{42, ModelKind::kNn, 10.0, 9};
  cache.Put(base, TinyReport(1.0));
  ReportCacheKey other_model = base;
  other_model.model = ModelKind::kGnn;
  ReportCacheKey other_tokens = base;
  other_tokens.reference_tokens = 20.0;
  ReportCacheKey other_grid = base;
  other_grid.grid_points = 17;
  ReportCacheKey other_fingerprint = base;
  other_fingerprint.fingerprint = 43;
  EXPECT_TRUE(Hit(cache, base));
  EXPECT_FALSE(Hit(cache, other_model));
  EXPECT_FALSE(Hit(cache, other_tokens));
  EXPECT_FALSE(Hit(cache, other_grid));
  EXPECT_FALSE(Hit(cache, other_fingerprint));
}

TEST(ServeCacheTest, SignedZeroTokensHashToTheSameBucket) {
  // operator== compares doubles, under which -0.0 == +0.0; the hash must
  // agree or equal keys probe different slots and a recurring job stops
  // hitting its own cache entry (regression: the hash used the raw bit
  // pattern, which differs between the two zeros).
  ReportCache cache(16);
  ReportCacheKey positive{42, ModelKind::kNn, +0.0, 9};
  ReportCacheKey negative{42, ModelKind::kNn, -0.0, 9};
  ASSERT_TRUE(positive == negative);
  EXPECT_EQ(HashReportCacheKey(positive), HashReportCacheKey(negative));
  cache.Put(negative, TinyReport(1.0));
  EXPECT_TRUE(Hit(cache, positive));
  EXPECT_EQ(cache.counters().size, 1u);
}

TEST(ServeCacheTest, ZeroCapacityDisablesCaching) {
  ReportCache cache(0);
  ReportCacheKey key{7, ModelKind::kNn, 10.0, 9};
  cache.Put(key, TinyReport(1.0));
  EXPECT_FALSE(Hit(cache, key));
  EXPECT_EQ(cache.counters().insertions, 0u);
}

// The cases above stay under 128 entries, so they run one shard. These
// run many: after 10 x capacity distinct Puts every shard has overflowed
// many times, yet the cache holds exactly `capacity` entries, a key read
// back after every Put stays resident (LRU is exact within its shard), and
// re-putting a resident key replaces it in place.
void ExpectMultiShardLru(size_t capacity) {
  ReportCache cache(capacity);
  const ReportCacheKey hot{~uint64_t{0}, ModelKind::kNn, 10.0, 9};
  cache.Put(hot, TinyReport(-1.0));
  const uint64_t puts = 10 * capacity;
  bool hot_kept = true;
  for (uint64_t i = 0; i < puts; ++i) {
    cache.Put({i, ModelKind::kNn, 10.0, 9},
              TinyReport(static_cast<double>(i)));
    hot_kept &= Hit(cache, hot);
  }
  EXPECT_TRUE(hot_kept) << "a key read back after every Put was evicted";
  ReportCacheCounters full = cache.counters();
  EXPECT_EQ(full.size, capacity);
  EXPECT_EQ(full.insertions, puts + 1);
  EXPECT_EQ(full.evictions, full.insertions - full.size);

  const ReportCacheKey newest{puts - 1, ModelKind::kNn, 10.0, 9};
  cache.Put(newest, TinyReport(-2.0));
  ReportCacheCounters refreshed = cache.counters();
  EXPECT_EQ(refreshed.size, capacity);
  EXPECT_EQ(refreshed.insertions, full.insertions);
  EXPECT_EQ(refreshed.evictions, full.evictions);
  WhatIfReport report;
  ASSERT_TRUE(cache.GetInto(newest, &report));
  EXPECT_DOUBLE_EQ(report.reference_tokens, -2.0);
}

TEST(ServeCacheTest, MultiShardLruAtCapacity4096) {
  ExpectMultiShardLru(4096);  // 64 shards of 64.
}

TEST(ServeCacheTest, MultiShardLruAtCapacity200) {
  ExpectMultiShardLru(200);  // 3 shards: 67, 67 and 66.
}

// Writers publish shards while readers pin and copy out of them (a TSan
// target: scripts/check.sh tsan runs every Serve* test). Each report's
// reference_tokens is its key's fingerprint, so a hit on the wrong entry,
// or on a torn one, shows.
TEST(ServeCacheTest, ConcurrentPutsAndHitsAcrossShards) {
  constexpr size_t kCapacity = 4096;
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr uint64_t kKeysPerWriter = 2048;  // Twice the capacity in all.
  constexpr uint64_t kMinLookups = 20000;
  auto key_of = [](uint64_t fingerprint) {
    return ReportCacheKey{fingerprint, ModelKind::kNn, 10.0, 9};
  };
  ReportCache cache(kCapacity);
  std::atomic<int> writers_left{kWriters};
  std::vector<uint64_t> lookups(kReaders, 0);
  std::vector<uint64_t> hits(kReaders, 0);
  std::vector<uint64_t> wrong(kReaders, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 0; i < kKeysPerWriter; ++i) {
        uint64_t fingerprint = static_cast<uint64_t>(w) * kKeysPerWriter + i;
        cache.Put(key_of(fingerprint),
                  TinyReport(static_cast<double>(fingerprint)));
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(100 + r));
      WhatIfReport report;
      // Keep reading until every writer is done, so reads overlap writes.
      while (lookups[r] < kMinLookups ||
             writers_left.load(std::memory_order_acquire) > 0) {
        auto fingerprint = static_cast<uint64_t>(rng.UniformInt(
            0, static_cast<int64_t>(kWriters * kKeysPerWriter) - 1));
        ++lookups[r];
        if (cache.GetInto(key_of(fingerprint), &report)) {
          ++hits[r];
          if (report.reference_tokens != static_cast<double>(fingerprint)) {
            ++wrong[r];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  uint64_t total_lookups = 0;
  uint64_t total_hits = 0;
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(wrong[r], 0u) << "reader " << r << " hit another key's report";
    total_lookups += lookups[r];
    total_hits += hits[r];
  }
  ReportCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits + counters.misses, total_lookups);
  EXPECT_EQ(counters.hits, total_hits);
  EXPECT_GT(counters.hits, 0u);
  EXPECT_LE(counters.size, kCapacity);
  EXPECT_EQ(counters.insertions, kWriters * kKeysPerWriter);
  EXPECT_EQ(counters.evictions, counters.insertions - counters.size);
}

// ---- Fingerprint (serving-side determinism) ------------------------------

TEST(ServeFingerprintTest, StableAcrossThreadCounts) {
  WorkloadConfig config;
  config.seed = 23;
  WorkloadGenerator generator(config);
  std::vector<Job> jobs = generator.Generate(0, 40);
  auto fingerprint_all = [&jobs](unsigned threads) {
    std::vector<uint64_t> prints(jobs.size());
    ParallelFor(
        jobs.size(),
        [&](size_t i) { prints[i] = jobs[i].graph.Fingerprint(); }, threads);
    return prints;
  };
  std::vector<uint64_t> one = fingerprint_all(1);
  std::vector<uint64_t> two = fingerprint_all(2);
  std::vector<uint64_t> eight = fingerprint_all(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// ---- PccServer -----------------------------------------------------------

class ServeServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.seed = 31;
    generator_ = new WorkloadGenerator(config);
    NoiseModel noise;
    noise.enabled = true;
    auto observed =
        ObserveWorkload(generator_->Generate(0, 120), noise, 1).value();
    TasqOptions options;
    options.nn.epochs = 20;
    options.gnn.epochs = 2;
    options.gnn.gcn_hidden = {8};
    options.gnn.head_hidden = {8};
    options.xgb.gbdt.num_trees = 30;
    pipeline_ = new Tasq(options);
    ASSERT_TRUE(pipeline_->Train(observed).ok());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete generator_;
    pipeline_ = nullptr;
    generator_ = nullptr;
  }

  static std::vector<ScoreRequest> MakeRequests(int64_t first_id, int count,
                                                ModelKind model) {
    std::vector<ScoreRequest> requests;
    for (const Job& job : generator_->Generate(first_id, count)) {
      ScoreRequest request;
      request.graph = job.graph;
      request.model = model;
      request.reference_tokens = job.default_tokens;
      requests.push_back(std::move(request));
    }
    return requests;
  }

  static Tasq* pipeline_;
  static WorkloadGenerator* generator_;
};

Tasq* ServeServerTest::pipeline_ = nullptr;
WorkloadGenerator* ServeServerTest::generator_ = nullptr;

TEST_F(ServeServerTest, BatchedResultsMatchSequentialByteForByte) {
  for (ModelKind model : {ModelKind::kNn, ModelKind::kGnn,
                          ModelKind::kXgboostPl, ModelKind::kXgboostSs}) {
    std::vector<ScoreRequest> requests = MakeRequests(500, 12, model);
    // Sequential ground truth straight through the pipeline.
    std::vector<std::string> expected;
    for (const ScoreRequest& request : requests) {
      auto report =
          BuildWhatIfReport(*pipeline_, request.graph, request.model,
                            request.reference_tokens, request.grid_points);
      ASSERT_TRUE(report.ok()) << ModelKindName(model);
      expected.push_back(report.value().ToText());
    }
    PccServerOptions options;
    options.num_threads = 4;
    options.max_batch = 5;  // Forces multi-request batches with remainder.
    PccServer server(*pipeline_, options);
    std::vector<Result<WhatIfReport>> results = server.ScoreBatch(requests);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << ModelKindName(model) << " request " << i;
      EXPECT_EQ(results[i].value().ToText(), expected[i])
          << ModelKindName(model) << " request " << i;
    }
  }
}

TEST_F(ServeServerTest, CacheHitsSkipInferenceAndMatchFreshScores) {
  std::vector<ScoreRequest> requests = MakeRequests(600, 6, ModelKind::kNn);
  PccServerOptions options;
  options.num_threads = 2;
  PccServer server(*pipeline_, options);

  std::vector<std::string> first;
  for (const ScoreRequest& request : requests) {
    auto result = server.Score(request);
    ASSERT_TRUE(result.ok());
    first.push_back(result.value().ToText());
  }
  ServerStats cold = server.Stats();
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 6u);

  for (size_t i = 0; i < requests.size(); ++i) {
    auto result = server.Score(requests[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().ToText(), first[i]) << "request " << i;
  }
  ServerStats warm = server.Stats();
  EXPECT_EQ(warm.cache_hits, 6u);
  EXPECT_EQ(warm.cache_misses, 6u);
  // The second pass produced no new batches: inference was skipped.
  EXPECT_EQ(warm.batched_requests, cold.batched_requests);
  EXPECT_EQ(warm.completed, 12u);
}

TEST_F(ServeServerTest, CacheEvictionIsBoundedAndCounted) {
  std::vector<ScoreRequest> requests = MakeRequests(700, 8, ModelKind::kNn);
  PccServerOptions options;
  options.num_threads = 1;
  options.cache_capacity = 3;
  PccServer server(*pipeline_, options);
  for (const ScoreRequest& request : requests) {
    ASSERT_TRUE(server.Score(request).ok());
  }
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache_size, 3u);
  EXPECT_EQ(stats.cache_evictions, 5u);
}

TEST_F(ServeServerTest, BoundedQueueAppliesBackpressure) {
  std::vector<ScoreRequest> requests = MakeRequests(800, 40, ModelKind::kNn);
  PccServerOptions options;
  options.num_threads = 2;
  options.queue_capacity = 4;
  options.cache_capacity = 0;  // Every request must traverse the queue.
  PccServer server(*pipeline_, options);

  // Flood from several producers; the bounded queue must never overfill.
  std::vector<std::thread> producers;
  std::vector<std::vector<Result<WhatIfReport>>> results(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p]() {
      std::vector<ScoreRequest> slice(
          requests.begin() + p * 10, requests.begin() + (p + 1) * 10);
      results[p] = server.ScoreBatch(slice);
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (const auto& slice : results) {
    ASSERT_EQ(slice.size(), 10u);
    for (const auto& result : slice) ASSERT_TRUE(result.ok());
  }
  ServerStats stats = server.Stats();
  EXPECT_LE(stats.max_queue_depth, 4u);
  EXPECT_EQ(stats.completed, 40u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(ServeServerTest, ShutdownFulfillsInflightAndRejectsNewRequests) {
  std::vector<ScoreRequest> requests = MakeRequests(900, 30, ModelKind::kNn);
  PccServerOptions options;
  options.num_threads = 2;
  options.cache_capacity = 0;
  PccServer server(*pipeline_, options);

  std::vector<std::future<Result<WhatIfReport>>> futures;
  for (ScoreRequest& request : requests) {
    futures.push_back(server.Submit(std::move(request)));
  }
  server.Shutdown();  // Graceful: everything accepted must still resolve OK.
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<WhatIfReport> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << "request " << i;
  }
  // Post-shutdown submissions resolve immediately with FailedPrecondition.
  ScoreRequest late;
  late.graph = generator_->GenerateJob(999).graph;
  late.reference_tokens = 10.0;
  Result<WhatIfReport> rejected = server.Score(std::move(late));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 30u);
  EXPECT_EQ(stats.failed, 1u);
}

// A worker that finds the queue empty polls it briefly before parking, and
// Submit skips the wake-up while one polls. Gaps that land before, around
// and after the poll window exercise every side of that hand-off; a lost
// wake-up shows as a future that never resolves, so each wait is bounded.
TEST_F(ServeServerTest, SubmitsAroundThePollWindowAreAllServed) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 24;
  const int gaps_us[] = {0, 50, 300, 450, 500, 550, 700, 1500};
  std::vector<ScoreRequest> requests =
      MakeRequests(1100, kProducers * kPerProducer, ModelKind::kNn);
  for (unsigned threads : {1u, 2u}) {
    PccServerOptions options;
    options.num_threads = threads;
    options.cache_capacity = 0;  // Every request must reach a worker.
    PccServer server(*pipeline_, options);
    std::atomic<int> served{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p]() {
        for (int i = 0; i < kPerProducer; ++i) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(gaps_us[(i + p) % 8]));
          auto future = server.Submit(requests[p * kPerProducer + i]);
          if (future.wait_for(std::chrono::seconds(10)) !=
              std::future_status::ready) {
            return;  // Stranded: the count below reports it.
          }
          if (future.get().ok()) {
            served.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
    EXPECT_EQ(served.load(std::memory_order_relaxed),
              kProducers * kPerProducer)
        << threads << " worker(s)";
    EXPECT_EQ(server.Stats().completed,
              static_cast<uint64_t>(kProducers * kPerProducer));
  }
}

TEST_F(ServeServerTest, InvalidGraphFailsThatRequestOnly) {
  std::vector<ScoreRequest> good = MakeRequests(950, 3, ModelKind::kNn);
  auto bad_request = [&good](double reference_tokens, size_t grid_points) {
    ScoreRequest bad;
    bad.graph = good[0].graph;
    bad.model = ModelKind::kNn;
    bad.reference_tokens = reference_tokens;
    bad.grid_points = grid_points;
    return bad;
  };
  ScoreRequest empty_graph;
  empty_graph.graph = JobGraph{};  // No operators: featurization must fail.
  empty_graph.model = ModelKind::kNn;
  empty_graph.reference_tokens = 10.0;
  std::vector<ScoreRequest> requests;
  requests.push_back(good[0]);
  requests.push_back(std::move(empty_graph));
  requests.push_back(good[1]);
  // Malformed scoring numbers fail before the cache: a NaN key never
  // equals itself, so caching it would only evict live entries.
  requests.push_back(bad_request(std::nan(""), 9));
  requests.push_back(bad_request(std::numeric_limits<double>::infinity(), 9));
  requests.push_back(bad_request(10.0, size_t{1} << 40));
  requests.push_back(good[2]);
  PccServerOptions options;
  options.num_threads = 1;
  // The four queued requests fit one batch; the malformed three are
  // rejected by Submit and never reach the queue.
  options.max_batch = 4;
  PccServer server(*pipeline_, options);
  std::vector<Result<WhatIfReport>> results = server.ScoreBatch(requests);
  ASSERT_EQ(results.size(), 7u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  for (size_t i = 3; i < 6; ++i) {
    ASSERT_FALSE(results[i].ok()) << "request " << i;
    EXPECT_EQ(results[i].status().code(), StatusCode::kInvalidArgument)
        << "request " << i;
  }
  EXPECT_TRUE(results[6].ok());
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.cache_size, 3u);
  EXPECT_EQ(stats.cache_evictions, 0u);
}

TEST_F(ServeServerTest, StatsSnapshotIsCoherentAndPrintable) {
  std::vector<ScoreRequest> requests = MakeRequests(1000, 5, ModelKind::kNn);
  PccServer server(*pipeline_, PccServerOptions{});
  for (const Result<WhatIfReport>& result : server.ScoreBatch(requests)) {
    ASSERT_TRUE(result.ok());
  }
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.received, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, 5u);
  // Both batch counts land before any future of their batch resolves.
  EXPECT_EQ(stats.queue_wait.count, stats.batched_requests);
  EXPECT_LE(stats.queue_wait.p50_ms(), stats.queue_wait.p99_ms());
  EXPECT_LE(stats.queue_wait.p99_ms(), stats.queue_wait.max_ms);
  // A batch's scoring time is recorded after its futures resolve, so the
  // inference histogram is exact once the workers have been joined.
  server.Shutdown();
  ServerStats drained = server.Stats();
  EXPECT_EQ(drained.batches, stats.batches);
  EXPECT_EQ(drained.inference.count, drained.batches);
  EXPECT_LE(drained.inference.p50_ms(), drained.inference.p99_ms());
  EXPECT_LE(drained.inference.p99_ms(), drained.inference.max_ms);
  EXPECT_EQ(stats.end_to_end.count, 5u);
  EXPECT_GT(stats.end_to_end.total_ms, 0.0);
  // Tail latency comes from the lock-free histogram: quantiles are
  // positive once anything was served, monotone in q, and never exceed
  // the observed maximum.
  EXPECT_GT(stats.end_to_end.p50_ms(), 0.0);
  EXPECT_LE(stats.end_to_end.p50_ms(), stats.end_to_end.p99_ms());
  EXPECT_LE(stats.end_to_end.p99_ms(), stats.end_to_end.max_ms);
  EXPECT_GE(stats.end_to_end.max_ms, stats.end_to_end.mean_ms());
  std::string text = stats.ToText();
  EXPECT_NE(text.find("requests:"), std::string::npos);
  EXPECT_NE(text.find("cache:"), std::string::npos);
  EXPECT_NE(text.find("latency:"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

}  // namespace
}  // namespace tasq
