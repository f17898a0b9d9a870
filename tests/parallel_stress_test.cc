// Race-stress suite for the parallel core. Designed to run under
// ThreadSanitizer (scripts/check.sh tsan): every pattern here is one the
// later perf PRs will lean on, so a regression that introduces a data race
// or breaks the exception contract fails this binary before it ships.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "serve/server.h"
#include "tasq/what_if.h"
#include "workload/generator.h"

namespace tasq {
namespace {

// Shared-slot writes: the canonical usage pattern (each index owns slot i
// of a pre-sized vector). TSan must see no race between distinct slots or
// with the final read after join.
TEST(ParallelStressTest, SharedSlotWritesAreRaceFree) {
  const size_t n = 10000;
  std::vector<double> out(n, 0.0);
  ParallelFor(n, [&](size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * static_cast<double>(n) * (n - 1) / 2.0);
}

// A mutex-guarded shared accumulator must also be clean: the loop makes no
// assumptions about bodies being disjoint as long as they synchronize.
TEST(ParallelStressTest, MutexGuardedAccumulatorIsRaceFree) {
  const size_t n = 5000;
  std::mutex mutex;
  long total = 0;
  ParallelFor(n, [&](size_t i) {
    std::lock_guard<std::mutex> lock(mutex);
    total += static_cast<long>(i);
  });
  EXPECT_EQ(total, static_cast<long>(n) * (n - 1) / 2);
}

// Atomic read-modify-write across all indices: stresses the work-stealing
// counter under maximal contention (bodies that finish instantly).
TEST(ParallelStressTest, AtomicContentionVisitsEveryIndexOnce) {
  const size_t n = 50000;
  std::atomic<size_t> visited{0};
  std::vector<std::atomic<unsigned char>> seen(n);
  ParallelFor(n, [&](size_t i) {
    visited.fetch_add(1, std::memory_order_relaxed);
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(visited.load(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(int{seen[i].load()}, 1) << "index " << i;
  }
}

// Nested ParallelFor: an outer parallel loop whose body runs its own inner
// loop. The inner call must neither deadlock nor race on the outer state.
TEST(ParallelStressTest, NestedCallsAreSafe) {
  const size_t outer = 16;
  const size_t inner = 64;
  std::vector<std::vector<double>> results(outer);
  ParallelFor(outer, [&](size_t o) {
    results[o].assign(inner, 0.0);
    ParallelFor(
        inner, [&, o](size_t i) {
          results[o][i] = static_cast<double>(o * 1000 + i);
        },
        2);
  });
  for (size_t o = 0; o < outer; ++o) {
    for (size_t i = 0; i < inner; ++i) {
      EXPECT_DOUBLE_EQ(results[o][i], static_cast<double>(o * 1000 + i));
    }
  }
}

// Exception contract: the first exception thrown by a body is rethrown on
// the calling thread after all workers joined (never std::terminate).
TEST(ParallelStressTest, ExceptionInBodyPropagatesToCaller) {
  const size_t n = 1000;
  EXPECT_THROW(
      ParallelFor(n,
                  [&](size_t i) {
                    if (i == 137) throw std::runtime_error("body failed");
                  },
                  8),
      std::runtime_error);
}

// After an exception, every worker must have joined: writes made by other
// indices before the cancellation are visible and unracy.
TEST(ParallelStressTest, WorkersJoinAfterException) {
  const size_t n = 2000;
  std::vector<std::atomic<int>> touched(n);
  std::string message;
  try {
    ParallelFor(n,
                [&](size_t i) {
                  touched[i].fetch_add(1, std::memory_order_relaxed);
                  if (i == 500) throw std::logic_error("halt");
                },
                4);
  } catch (const std::logic_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "halt");
  // Each index ran at most once; at least the throwing one ran.
  size_t ran = 0;
  for (size_t i = 0; i < n; ++i) {
    int count = touched[i].load();
    ASSERT_LE(count, 1) << "index " << i;
    ran += static_cast<size_t>(count);
  }
  EXPECT_GE(ran, 1u);
}

// Exceptions from several bodies at once: exactly one wins, the process
// survives, and the winner is one of the thrown values.
TEST(ParallelStressTest, ConcurrentExceptionsRethrowExactlyOne) {
  const size_t n = 4000;
  int value = -1;
  try {
    ParallelFor(n, [&](size_t i) { throw static_cast<int>(i); }, 8);
  } catch (int i) {
    value = i;
  }
  EXPECT_GE(value, 0);
  EXPECT_LT(value, static_cast<int>(n));
}

// Seeded determinism: the same per-index pure computation must produce
// bit-identical results across 1, 2, and 8 threads — the property every
// flighting/observation path in the repo depends on.
TEST(ParallelStressTest, DeterministicAcrossOneTwoEightThreads) {
  const size_t n = 4096;
  const uint64_t seed = 0xC0FFEE;
  auto run = [&](unsigned threads) {
    std::vector<double> out(n, 0.0);
    ParallelFor(
        n,
        [&](size_t i) {
          Rng rng(seed ^ (static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL));
          double acc = 0.0;
          for (int k = 0; k < 16; ++k) acc += rng.Uniform(0.0, 1.0);
          out[i] = acc;
        },
        threads);
    return out;
  };
  std::vector<double> one = run(1);
  std::vector<double> two = run(2);
  std::vector<double> eight = run(8);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(one[i], two[i]) << "index " << i;
    ASSERT_EQ(one[i], eight[i]) << "index " << i;
  }
}

// Repeated small launches: thread creation/teardown churn is where lazy
// initialization races and counter reuse bugs hide.
TEST(ParallelStressTest, RepeatedLaunchesStayConsistent) {
  for (int round = 0; round < 200; ++round) {
    std::vector<int> out(17, 0);
    ParallelFor(out.size(), [&](size_t i) { out[i] = round; }, 3);
    for (int v : out) ASSERT_EQ(v, round);
  }
}

// ---- Scoring one trained pipeline from many threads ----------------------
//
// The serving layer shares a single const Tasq across every worker without
// locks, relying on the thread-safety contract documented in tasq.h. These
// tests hammer that contract under TSan: any hidden mutable state in a
// scoring path (lazy caches, shared scratch buffers) shows up as a data
// race here before it can corrupt production scores.

class ParallelStressPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.seed = 17;
    generator_ = new WorkloadGenerator(config);
    NoiseModel noise;
    noise.enabled = true;
    auto observed =
        ObserveWorkload(generator_->Generate(0, 80), noise, 1).value();
    // Smallest configuration that trains all four models: the tests below
    // probe concurrency, not accuracy, and this binary also runs under
    // TSan's ~20x slowdown.
    TasqOptions options;
    options.nn.epochs = 6;
    options.gnn.epochs = 1;
    options.gnn.gcn_hidden = {8};
    options.gnn.head_hidden = {8};
    options.xgb.gbdt.num_trees = 10;
    pipeline_ = new Tasq(options);
    ASSERT_TRUE(pipeline_->Train(observed).ok());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete generator_;
    pipeline_ = nullptr;
    generator_ = nullptr;
  }

  static constexpr ModelKind kAllKinds[4] = {
      ModelKind::kXgboostSs, ModelKind::kXgboostPl, ModelKind::kNn,
      ModelKind::kGnn};

  static Tasq* pipeline_;
  static WorkloadGenerator* generator_;
};

Tasq* ParallelStressPipelineTest::pipeline_ = nullptr;
WorkloadGenerator* ParallelStressPipelineTest::generator_ = nullptr;
constexpr ModelKind ParallelStressPipelineTest::kAllKinds[4];

TEST_F(ParallelStressPipelineTest, EightThreadsScoreOnePipelineRaceFree) {
  std::vector<Job> jobs = generator_->Generate(200, 8);

  // Sequential ground truth, computed before any concurrency starts.
  std::vector<std::string> expected;
  for (const Job& job : jobs) {
    for (ModelKind kind : kAllKinds) {
      auto report = BuildWhatIfReport(*pipeline_, job.graph, kind,
                                      job.default_tokens, 9);
      ASSERT_TRUE(report.ok());
      expected.push_back(report.value().ToText());
    }
  }

  // 8 threads hammer every scoring entry point on the same pipeline.
  // Results must be bit-identical to the sequential pass — concurrency may
  // not perturb a single byte of any report.
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int round = 0; round < 3; ++round) {
        size_t slot = 0;
        for (const Job& job : jobs) {
          for (ModelKind kind : kAllKinds) {
            auto report = BuildWhatIfReport(*pipeline_, job.graph, kind,
                                            job.default_tokens, 9);
            if (!report.ok()) {
              errors.fetch_add(1);
            } else if (report.value().ToText() != expected[slot]) {
              mismatches.fetch_add(1);
            }
            ++slot;
            // Exercise the lower-level entry points too; their results are
            // covered by the report comparison, so only failures count.
            if (!pipeline_->PredictRuntime(job.graph, kind,
                                           job.default_tokens,
                                           job.default_tokens).ok()) {
              errors.fetch_add(1);
            }
            if (kind != ModelKind::kXgboostSs &&
                !pipeline_->PredictPcc(job.graph, kind,
                                       job.default_tokens).ok()) {
              errors.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ParallelStressPipelineTest, ServerStressFromEightProducers) {
  // A shared PccServer under producer contention: 8 threads submit a
  // recurring-heavy stream (cache hits and misses interleave with queue
  // backpressure) and every future must resolve to the sequential answer.
  std::vector<Job> jobs = generator_->Generate(300, 6);
  std::vector<std::string> expected;
  for (const Job& job : jobs) {
    auto report = BuildWhatIfReport(*pipeline_, job.graph, ModelKind::kNn,
                                    job.default_tokens, 9);
    ASSERT_TRUE(report.ok());
    expected.push_back(report.value().ToText());
  }

  PccServerOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;
  options.max_batch = 4;
  options.cache_capacity = 4;  // Smaller than the job set: forces evictions.
  PccServer server(*pipeline_, options);

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 8; ++t) {
    producers.emplace_back([&, t]() {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int round = 0; round < 20; ++round) {
        size_t pick = static_cast<size_t>(
            rng.Uniform(0.0, static_cast<double>(jobs.size()) - 0.001));
        ScoreRequest request;
        request.graph = jobs[pick].graph;
        request.model = ModelKind::kNn;
        request.reference_tokens = jobs[pick].default_tokens;
        auto result = server.Score(std::move(request));
        if (!result.ok()) {
          errors.fetch_add(1);
        } else if (result.value().ToText() != expected[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  server.Shutdown();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 160u);
  EXPECT_LE(stats.max_queue_depth, options.queue_capacity);
}

}  // namespace
}  // namespace tasq
