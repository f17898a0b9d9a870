// Runtime tier of the hot-path conformance story: the static analyzer
// (`tasq_check.py hot`) proves the TASQ_HOT serving path contains no
// allocation calls; these tests measure it. A counting operator new
// (tests/alloc_counter.h) pins the warm cache-hit request path —
// PccServer::TryScoreCached → JobGraph::Fingerprint → ReportCache::GetInto
// — at exactly ZERO heap allocations per request, holds the cold submit
// path and a cache Put to single-digit budgets, and checks the lock-free
// latency histogram and fast-path stats that ride along.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "serve/cache.h"
#include "serve/latency_histogram.h"
#include "serve/server.h"
#include "tasq/what_if.h"
#include "workload/generator.h"

namespace tasq {
namespace {

// ---- alloc_counter self-test ---------------------------------------------

// The counter must count a known allocation pattern exactly — otherwise a
// zero-allocation assertion could pass vacuously because the overrides
// never linked in. Direct calls to the allocation functions are ordinary
// function calls, which (unlike new-expressions) the compiler may not
// elide, so the expected counts are exact by construction.
TEST(AllocCounterTest, CountsDirectAllocationCallsExactly) {
  uint64_t before = tasq_test::AllocationCount();
  void* a = ::operator new(16);
  ::operator delete(a);
  void* b = ::operator new[](32);
  ::operator delete[](b);
  EXPECT_EQ(tasq_test::AllocationCount() - before, 2u);
}

TEST(AllocCounterTest, CountsAlignedAndNothrowVariants) {
  uint64_t before = tasq_test::AllocationCount();
  void* a = ::operator new(64, std::align_val_t(64));
  ::operator delete(a, std::align_val_t(64));
  void* b = ::operator new(8, std::nothrow);
  ::operator delete(b, std::nothrow);
  EXPECT_EQ(tasq_test::AllocationCount() - before, 2u);
}

TEST(AllocCounterTest, DeallocationIsNotCounted) {
  void* a = ::operator new(16);
  uint64_t before = tasq_test::AllocationCount();
  ::operator delete(a);
  EXPECT_EQ(tasq_test::AllocationCount() - before, 0u);
}

// ---- LatencyHistogram ----------------------------------------------------

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram hist;
  LatencyHistogram::Snapshot s = hist.TakeSnapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean_ms(), 0.0);
  EXPECT_EQ(s.p50_ms(), 0.0);
  EXPECT_EQ(s.p99_ms(), 0.0);
  EXPECT_EQ(s.max_ms, 0.0);
}

TEST(LatencyHistogramTest, QuantilesOfKnownDistribution) {
  LatencyHistogram hist;
  // 99 observations of ~1us and one 1ms outlier: the median must stay in
  // the microsecond bucket while the tail sees the outlier.
  for (int i = 0; i < 99; ++i) hist.Observe(1000);
  hist.Observe(1000000);
  LatencyHistogram::Snapshot s = hist.TakeSnapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.max_ms, 1.0);
  // 1000ns has bit width 10; its bucket's upper edge is 2^10 ns.
  EXPECT_NEAR(s.p50_ms(), 0.001024, 1e-12);
  // rank ceil(0.99 * 100) = 99 still lands in the microsecond bucket.
  EXPECT_NEAR(s.p99_ms(), 0.001024, 1e-12);
  // The top of the distribution is the outlier, clamped to the true max.
  EXPECT_DOUBLE_EQ(s.QuantileMs(1.0), 1.0);
  EXPECT_LE(s.p50_ms(), s.p99_ms());
  EXPECT_GT(s.mean_ms(), 0.0);
}

TEST(LatencyHistogramTest, QuantileIsMonotoneAndBoundedByMax) {
  LatencyHistogram hist;
  for (uint64_t ns = 1; ns < 2000000; ns *= 3) hist.Observe(ns);
  LatencyHistogram::Snapshot s = hist.TakeSnapshot();
  double previous = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    double value = s.QuantileMs(q);
    EXPECT_GE(value, previous);
    EXPECT_LE(value, s.max_ms);
    previous = value;
  }
}

TEST(LatencyHistogramTest, ObserveAllocatesNothing) {
  LatencyHistogram hist;
  uint64_t before = tasq_test::AllocationCount();
  for (uint64_t i = 0; i < 10000; ++i) hist.Observe(i * 37);
  EXPECT_EQ(tasq_test::AllocationCount() - before, 0u);
}

// ---- The zero-allocation serving fast path -------------------------------

class HotPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.seed = 47;
    generator_ = new WorkloadGenerator(config);
    NoiseModel noise;
    noise.enabled = true;
    auto observed =
        ObserveWorkload(generator_->Generate(0, 60), noise, 1).value();
    TasqOptions options;
    options.train_xgb = false;  // Only the NN serves in this suite; keep
    options.train_gnn = false;  // suite setup fast.
    options.nn.epochs = 8;
    pipeline_ = new Tasq(options);
    ASSERT_TRUE(pipeline_->Train(observed).ok());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete generator_;
    pipeline_ = nullptr;
    generator_ = nullptr;
  }

  static std::vector<ScoreRequest> MakeRequests(int64_t first_id, int count) {
    std::vector<ScoreRequest> requests;
    for (const Job& job : generator_->Generate(first_id, count)) {
      ScoreRequest request;
      request.graph = job.graph;
      request.model = ModelKind::kNn;
      request.reference_tokens = job.default_tokens;
      requests.push_back(std::move(request));
    }
    return requests;
  }

  static Tasq* pipeline_;
  static WorkloadGenerator* generator_;
};

Tasq* HotPathTest::pipeline_ = nullptr;
WorkloadGenerator* HotPathTest::generator_ = nullptr;

TEST_F(HotPathTest, TryScoreCachedMissesBeforePrimingAndHitsAfter) {
  std::vector<ScoreRequest> requests = MakeRequests(100, 2);
  PccServer server(*pipeline_, PccServerOptions{});
  WhatIfReport buffer;
  EXPECT_FALSE(server.TryScoreCached(requests[0], &buffer));
  // A miss counts nothing on the server side (the caller re-submits).
  EXPECT_EQ(server.Stats().received, 0u);
  EXPECT_EQ(server.Stats().cache_misses, 0u);
  Result<WhatIfReport> cold = server.Score(requests[0]);
  ASSERT_TRUE(cold.ok());
  // The probe and the Submit behind Score looked the cache up twice, but
  // it is one request and one miss.
  EXPECT_EQ(server.Stats().received, 1u);
  EXPECT_EQ(server.Stats().cache_misses, 1u);
  EXPECT_TRUE(server.TryScoreCached(requests[0], &buffer));
  EXPECT_FALSE(server.TryScoreCached(requests[1], &buffer));
}

// The acceptance criterion of the hot-path work: once the cache and the
// caller's report buffer are warm, a cache-hit request performs ZERO heap
// allocations — no new, no vector growth, no string, no promise.
TEST_F(HotPathTest, WarmCacheHitPathAllocatesExactlyZero) {
  std::vector<ScoreRequest> requests = MakeRequests(200, 4);
  PccServer server(*pipeline_, PccServerOptions{});
  for (const ScoreRequest& request : requests) {
    ASSERT_TRUE(server.Score(request).ok());  // Prime the cache (cold).
  }
  WhatIfReport buffer;
  // Warm the caller's buffer: the first hit grows buffer.curve to the
  // report's size; every later copy-assign reuses that capacity.
  ASSERT_TRUE(server.TryScoreCached(requests[0], &buffer));

  constexpr int kRounds = 256;
  uint64_t before = tasq_test::AllocationCount();
  // No gtest assertions inside the measured loop: EXPECT_* may allocate.
  bool all_hit = true;
  for (int i = 0; i < kRounds; ++i) {
    all_hit &= server.TryScoreCached(
        requests[static_cast<size_t>(i) % requests.size()], &buffer);
  }
  uint64_t allocations = tasq_test::AllocationCount() - before;
  EXPECT_TRUE(all_hit);
  EXPECT_EQ(allocations, 0u)
      << "warm cache-hit serving path must not allocate (budget: 0 per "
         "request, measured over "
      << kRounds << " requests)";
}

// The cold-path acceptance criterion, mirroring
// WarmCacheHitPathAllocatesExactlyZero above: a cold submitted request —
// promise/future, queue entry, featurization, NN inference, report
// assembly — stays within a single-digit allocation budget. Featurization
// runs through Featurizer::JobLevelInto (stack row), inference through
// Tasq::PredictPccBatchInto (reused matrices), and batch assembly through
// the worker's BatchScratch, so what remains per request is the future's
// shared state, the report's curve vectors, and amortized queue blocks.
// Two arrival shapes share the budget: a burst that keeps the worker busy
// back to back, and requests one at a time with idle gaps in between. The
// worker keeps its scratch across idle periods, so a gap must not make
// the next request rebuild it.
TEST_F(HotPathTest, ColdSubmitPathStaysWithinAllocationBudget) {
  constexpr uint64_t kBudgetPerRequest = 8;
  PccServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 64;
  options.max_batch = 16;
  options.cache_capacity = 0;  // Every request takes the cold path.

  // Burst shape.
  {
    constexpr int kRequests = 192;
    std::vector<ScoreRequest> requests = MakeRequests(500, kRequests);
    PccServer server(*pipeline_, options);

    uint64_t before = tasq_test::AllocationCount();
    // Moved in so the caller-side request copies are not charged to the
    // serving path. No gtest assertions before the measurement completes:
    // EXPECT_* may allocate.
    std::vector<Result<WhatIfReport>> results =
        server.ScoreBatch(std::move(requests));
    uint64_t allocations = tasq_test::AllocationCount() - before;

    ASSERT_EQ(results.size(), static_cast<size_t>(kRequests));
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    EXPECT_LE(allocations, kBudgetPerRequest * kRequests)
        << "burst: cold submit path exceeded its allocation budget: "
        << (static_cast<double>(allocations) / kRequests)
        << " allocations/request measured over " << kRequests
        << " requests (budget: " << kBudgetPerRequest << " per request)";
  }

  // Idle-gap shape: the worker goes idle after every request.
  {
    constexpr int kRequests = 63;
    std::vector<ScoreRequest> requests = MakeRequests(700, kRequests + 1);
    PccServer server(*pipeline_, options);
    ASSERT_TRUE(server.Score(std::move(requests[0])).ok());  // Warm-up.

    uint64_t before = tasq_test::AllocationCount();
    bool all_ok = true;
    for (int i = 1; i <= kRequests; ++i) {
      all_ok &= server.Score(std::move(requests[static_cast<size_t>(i)])).ok();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    uint64_t allocations = tasq_test::AllocationCount() - before;

    EXPECT_TRUE(all_ok);
    EXPECT_LE(allocations, kBudgetPerRequest * kRequests)
        << "idle gaps: cold submit path exceeded its allocation budget: "
        << (static_cast<double>(allocations) / kRequests)
        << " allocations/request measured over " << kRequests
        << " requests (budget: " << kBudgetPerRequest << " per request)";
  }
}

// The miss path's cache write: a Put into a full default-size cache
// rebuilds the key's shard, not the whole table. The reports are moved in,
// so no report copy is charged; what remains is the entry, the shard's new
// table and its slot array.
TEST_F(HotPathTest, CachePutIntoFullCacheStaysWithinAllocationBudget) {
  constexpr uint64_t kBudgetPerPut = 8;
  constexpr uint64_t kPuts = 256;
  const size_t capacity = PccServerOptions{}.cache_capacity;
  auto key_of = [](uint64_t fingerprint) {
    return ReportCacheKey{fingerprint, ModelKind::kNn, 10.0, 9};
  };
  auto curve_report = []() {
    WhatIfReport report;
    report.curve.resize(9);
    return report;
  };
  ReportCache cache(capacity);
  // Twice the capacity fills every shard, so each Put below evicts.
  const uint64_t fill = 2 * capacity;
  for (uint64_t i = 0; i < fill; ++i) cache.Put(key_of(i), curve_report());
  std::vector<WhatIfReport> reports(kPuts);
  for (WhatIfReport& report : reports) report = curve_report();
  ReportCacheCounters full = cache.counters();
  ASSERT_EQ(full.size, capacity);

  uint64_t before = tasq_test::AllocationCount();
  for (uint64_t i = 0; i < kPuts; ++i) {
    cache.Put(key_of(fill + i), std::move(reports[i]));
  }
  uint64_t allocations = tasq_test::AllocationCount() - before;

  EXPECT_EQ(cache.counters().evictions - full.evictions, kPuts);
  EXPECT_LE(allocations, kBudgetPerPut * kPuts)
      << "Put into a full cache exceeded its allocation budget: "
      << (static_cast<double>(allocations) / kPuts)
      << " allocations/Put measured over " << kPuts
      << " Puts (budget: " << kBudgetPerPut << " per Put)";
}

// The fast path must serve the same bytes as cold scoring — buffer reuse
// may not leak state between differently-keyed requests.
TEST_F(HotPathTest, FastPathReplaysColdReportsByteForByte) {
  std::vector<ScoreRequest> requests = MakeRequests(300, 3);
  PccServer server(*pipeline_, PccServerOptions{});
  std::vector<std::string> cold_texts;
  for (const ScoreRequest& request : requests) {
    Result<WhatIfReport> cold = server.Score(request);
    ASSERT_TRUE(cold.ok());
    cold_texts.push_back(cold.value().ToText());
  }
  WhatIfReport buffer;
  // Interleave the keys so every hit overwrites a buffer previously
  // holding a different report.
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(server.TryScoreCached(requests[i], &buffer));
      EXPECT_EQ(buffer.ToText(), cold_texts[i]);
    }
  }
}

TEST_F(HotPathTest, FastPathHitsCountIntoServerStats) {
  std::vector<ScoreRequest> requests = MakeRequests(400, 2);
  PccServer server(*pipeline_, PccServerOptions{});
  for (const ScoreRequest& request : requests) {
    ASSERT_TRUE(server.Score(request).ok());
  }
  ServerStats primed = server.Stats();
  WhatIfReport buffer;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.TryScoreCached(requests[0], &buffer));
  }
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.received, primed.received + 10);
  EXPECT_EQ(stats.completed, primed.completed + 10);
  EXPECT_EQ(stats.cache_hits, primed.cache_hits + 10);
  EXPECT_EQ(stats.failed, primed.failed);
  EXPECT_EQ(stats.end_to_end.count, primed.end_to_end.count + 10);
  EXPECT_LE(stats.end_to_end.p50_ms(), stats.end_to_end.p99_ms());
  EXPECT_LE(stats.end_to_end.p99_ms(), stats.end_to_end.max_ms);
}

// ---- XGBoost report budgets ----------------------------------------------

// XGBoost-SS has no parametric form, so its report builds one spline per
// request (one featurization, one window prediction from one reused row)
// and evaluates it for the curve and both recommendations; XGBoost-PL
// shares the window step. The budgets sit near twice the measured ~23 (SS)
// and ~8 (PL) allocations per report. Unreserved vectors in FitPowerLaw
// and OptimalTokensFromSamples cost ~33 and ~16; one curve rebuilt per
// evaluation costs ~413 and ~35.
class XgbHotPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.seed = 47;
    generator_ = new WorkloadGenerator(config);
    NoiseModel noise;
    noise.enabled = true;
    auto observed =
        ObserveWorkload(generator_->Generate(0, 60), noise, 1).value();
    TasqOptions options;
    options.train_nn = false;  // Only XGBoost serves in this suite.
    options.train_gnn = false;
    pipeline_ = new Tasq(options);
    ASSERT_TRUE(pipeline_->Train(observed).ok());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete generator_;
    pipeline_ = nullptr;
    generator_ = nullptr;
  }

  static Tasq* pipeline_;
  static WorkloadGenerator* generator_;
};

Tasq* XgbHotPathTest::pipeline_ = nullptr;
WorkloadGenerator* XgbHotPathTest::generator_ = nullptr;

TEST_F(XgbHotPathTest, XgboostReportsStayWithinAllocationBudget) {
  constexpr int kJobs = 50;
  std::vector<Job> jobs = generator_->Generate(900, kJobs);
  for (auto [model, budget] : {std::pair{ModelKind::kXgboostSs, 48.0},
                               std::pair{ModelKind::kXgboostPl, 16.0}}) {
    uint64_t before = tasq_test::AllocationCount();
    // No gtest assertions inside the measured loop: EXPECT_* may allocate.
    bool all_ok = true;
    for (const Job& job : jobs) {
      all_ok &= BuildWhatIfReport(*pipeline_, job.graph, model,
                                  job.default_tokens, 9)
                    .ok();
    }
    double per_report =
        static_cast<double>(tasq_test::AllocationCount() - before) / kJobs;
    EXPECT_TRUE(all_ok) << ModelKindName(model);
    EXPECT_LE(per_report, budget)
        << ModelKindName(model) << " what-if report exceeded its allocation "
        << "budget: " << per_report << " allocations/report over " << kJobs
        << " unseen jobs (budget: " << budget << ")";
  }
}

}  // namespace
}  // namespace tasq
