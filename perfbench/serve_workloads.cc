// The two serving workloads. Both drive one PccServer at its default
// options (what a deployment gets) from one generator thread and one
// collector thread:
//
//  1. open-loop phase: requests are due at a fixed rate; each is timed
//     from when it was due, so a stall also charges the requests queued
//     behind it. A request first tries TryScoreCached and falls back to
//     Submit on a miss; the collector waits for the futures in submission
//     order.
//  2. closed-loop phase: the generator keeps a fixed window of submitted
//     misses outstanding and sends as fast as completions allow; completed
//     requests per second is the saturation throughput.
//
// The traced run adds a ledger phase: the same request stream is served
// serially through the server's public API (the end-to-end time) and
// replayed through the public calls ProcessBatch makes, with a span
// around each layer.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using tasq::ModelKind;

constexpr size_t kCacheCapacity = tasq::PccServerOptions{}.cache_capacity;
/// Fresh jobs are cycled in order; with twice the cache's capacity between
/// two requests for the same fresh job, LRU has always evicted it.
constexpr size_t kFreshJobs = 2 * kCacheCapacity;
constexpr int64_t kPoolFirstJob = 1000;
constexpr int kRounds = 3;
/// Share of each round's measured time spent in the open-loop phase.
constexpr double kOpenLoopShare = 0.7;
constexpr size_t kClosedLoopWindow = 64;
constexpr int kThroughputWindows = 5;

struct ServeSpec {
  const char* name;
  /// Offered load of the open-loop phase, requests per second.
  double rate;
  /// Recurring jobs requested over and over (0: none).
  size_t working_set;
  /// Share of requests drawn from the working set.
  double recurring_share;
  /// Model mix of the fresh jobs, indexed by ModelKind.
  double kind_share[tasq::kModelKindCount];
};

// serve_recurring: the paper's recurring-job regime, all NN.
constexpr ServeSpec kRecurring = {"serve_recurring", 2000.0, 256, 0.9,
                                  {0.0, 0.0, 1.0, 0.0}};
// serve_adhoc: every request misses; mostly NN with a fixed share of the
// slower kinds (XGBoost-SS, XGBoost-PL, NN, GNN).
constexpr ServeSpec kAdhoc = {"serve_adhoc", 250.0, 0, 0.0,
                              {0.1, 0.1, 0.7, 0.1}};

/// The distinct requests a run draws from. Layout: [0, working_set) the
/// recurring jobs; then `history` jobs that only fill the cache before
/// timing; then kFreshJobs fresh jobs, requested in cycle order.
struct Pool {
  std::vector<tasq::ScoreRequest> requests;
  size_t working_set = 0;
  size_t history = 0;
  size_t fresh_begin() const { return working_set + history; }
};

/// Everything set-up produces; the server borrows the pipeline.
struct ServeSetup {
  std::unique_ptr<tasq::Tasq> pipeline;
  Pool pool;
  std::unique_ptr<tasq::PccServer> server;
};

/// Per pool entry: the digest of the report a direct BuildWhatIfReport
/// gives, and the tokens it recommends.
struct Expected {
  uint64_t digest = 0;
  double reference_tokens = 0.0;
  double bounded_tokens = 0.0;
};

ModelKind PickKind(const ServeSpec& spec, tasq::Rng& rng) {
  double u = rng.Uniform(0.0, 1.0);
  for (size_t k = 0; k + 1 < tasq::kModelKindCount; ++k) {
    if (u < spec.kind_share[k]) return static_cast<ModelKind>(k);
    u -= spec.kind_share[k];
  }
  return static_cast<ModelKind>(tasq::kModelKindCount - 1);
}

Pool MakePool(const ServeSpec& spec, uint64_t seed) {
  tasq::Rng rng(seed ^ 0x6b696e64ULL);
  Pool pool;
  pool.working_set = spec.working_set;
  pool.history = kCacheCapacity - spec.working_set;
  size_t total = pool.fresh_begin() + kFreshJobs;
  std::vector<tasq::Job> jobs =
      JobSource(seed).Jobs(kPoolFirstJob, static_cast<int64_t>(total));
  pool.requests.resize(total);
  for (size_t i = 0; i < total; ++i) {
    tasq::ScoreRequest& request = pool.requests[i];
    request.graph = std::move(jobs[i].graph);
    request.reference_tokens = jobs[i].default_tokens;
    request.model = i < pool.working_set ? ModelKind::kNn
                                         : PickKind(spec, rng);
  }
  return pool;
}

/// Calls `fill(i)` for every pool entry that fills the cache before
/// timing, history first, so the working set is the most recently used.
template <typename Fn>
void ForEachFillEntry(const Pool& pool, Fn fill) {
  for (size_t i = pool.working_set; i < pool.fresh_begin(); ++i) fill(i);
  for (size_t i = 0; i < pool.working_set; ++i) fill(i);
}

/// Fills the server's cache to capacity.
void FillCache(tasq::PccServer& server, const Pool& pool) {
  ForEachFillEntry(pool, [&](size_t i) {
    tasq::Result<tasq::WhatIfReport> report = server.Score(pool.requests[i]);
    if (!report.ok()) Die("cache fill", report.status());
  });
}

/// The cache key PccServer derives from a request with this fingerprint.
tasq::ReportCacheKey KeyFor(const tasq::ScoreRequest& request,
                            uint64_t fingerprint) {
  tasq::ReportCacheKey key;
  key.fingerprint = fingerprint;
  key.model = request.model;
  key.reference_tokens = request.reference_tokens;
  key.grid_points = request.grid_points;
  return key;
}

std::unique_ptr<ServeSetup> SetUp(const ServeSpec& spec, uint64_t seed) {
  auto setup = std::make_unique<ServeSetup>();
  setup->pipeline = TrainServingPipeline(seed);
  setup->pool = MakePool(spec, seed);
  setup->server = std::make_unique<tasq::PccServer>(*setup->pipeline);
  FillCache(*setup->server, setup->pool);
  return setup;
}

std::vector<Expected> ExpectedReports(const tasq::Tasq& pipeline,
                                      const Pool& pool) {
  std::vector<Expected> expected(pool.requests.size());
  for (size_t i = 0; i < pool.requests.size(); ++i) {
    const tasq::ScoreRequest& request = pool.requests[i];
    tasq::Result<tasq::WhatIfReport> report = tasq::BuildWhatIfReport(
        pipeline, request.graph, request.model, request.reference_tokens,
        request.grid_points);
    if (!report.ok()) Die("direct report", report.status());
    expected[i].digest = ReportDigest(report.value());
    expected[i].reference_tokens = report.value().reference_tokens;
    expected[i].bounded_tokens = report.value().bounded.tokens;
  }
  return expected;
}

/// The request sequence: which pool entry request i asks for. A pure
/// function of the seed, so the traced replay sees the same stream.
class Stream {
 public:
  Stream(const ServeSpec& spec, const Pool& pool, uint64_t seed)
      : spec_(spec), pool_(pool), rng_(seed ^ 0x73747265616dULL) {}

  size_t Next() {
    if (pool_.working_set > 0 &&
        rng_.Uniform(0.0, 1.0) < spec_.recurring_share) {
      return static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(pool_.working_set) - 1));
    }
    size_t item = pool_.fresh_begin() + next_fresh_;
    next_fresh_ = (next_fresh_ + 1) % kFreshJobs;
    return item;
  }

 private:
  const ServeSpec& spec_;
  const Pool& pool_;
  tasq::Rng rng_;
  size_t next_fresh_ = 0;
};

/// Output checks shared by the generator (cache hits) and the collector
/// (submitted misses); each thread keeps its own instance.
struct Tally {
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  double requested_tokens = 0.0;
  double saved_tokens = 0.0;

  void Record(const tasq::WhatIfReport& report, const Expected& expected) {
    ++served;
    if (ReportDigest(report) != expected.digest) ++mismatched;
    requested_tokens += expected.reference_tokens;
    saved_tokens += expected.reference_tokens - expected.bounded_tokens;
  }
  void Merge(const Tally& other) {
    served += other.served;
    failed += other.failed;
    mismatched += other.mismatched;
    requested_tokens += other.requested_tokens;
    saved_tokens += other.saved_tokens;
  }
};

/// Waits for submitted requests' futures in submission order on its own
/// thread and hands each completion to `on_done`.
class Collector {
 public:
  struct InFlight {
    size_t slot = 0;
    size_t item = 0;
    std::future<tasq::Result<tasq::WhatIfReport>> future;
  };
  using DoneFn = std::function<void(const InFlight&,
                                    const tasq::Result<tasq::WhatIfReport>&,
                                    Clock::time_point)>;

  explicit Collector(DoneFn on_done)
      : on_done_(std::move(on_done)), thread_([this] { Loop(); }) {}
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(InFlight in_flight) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(in_flight));
    }
    ready_.notify_one();
  }

  /// Waits for every pushed request, then joins the thread.
  void Finish() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    ready_.notify_one();
    thread_.join();
  }

 private:
  void Loop() {
    for (;;) {
      InFlight in_flight;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        in_flight = std::move(queue_.front());
        queue_.pop_front();
      }
      tasq::Result<tasq::WhatIfReport> result = in_flight.future.get();
      on_done_(in_flight, result, Clock::now());
    }
  }

  DoneFn on_done_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<InFlight> queue_;
  bool done_ = false;
  std::thread thread_;  // Last: started after the members it uses.
};

/// Sleeps until shortly before `due`, then spins, so requests leave on
/// time without a timer's wake-up slack.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::milliseconds(1);
  Clock::time_point now = Clock::now();
  if (due - now > kSpin) std::this_thread::sleep_for(due - now - kSpin);
  while (Clock::now() < due) {
  }
}

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return 1e6 * Seconds(from, to);
}

/// Open-loop phase: `spec.rate` requests per second for `seconds`. Returns
/// each request's latency from its due time and how late it was sent.
struct OpenLoopResult {
  std::vector<double> latency_us;
  std::vector<double> late_us;
  uint64_t hits = 0;
};

OpenLoopResult RunOpenLoop(const ServeSpec& spec, ServeSetup& setup,
                           const std::vector<Expected>& expected,
                           Stream& stream, double seconds, Tally& tally) {
  size_t count = std::max<size_t>(1, static_cast<size_t>(spec.rate * seconds));
  OpenLoopResult result;
  result.latency_us.assign(count, 0.0);
  result.late_us.assign(count, 0.0);
  std::vector<Clock::time_point> due(count);
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  std::chrono::duration<double> period(1.0 / spec.rate);
  for (size_t i = 0; i < count; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         period * static_cast<double>(i));
  }
  tasq::PccServer& server = *setup.server;
  Tally collected;
  Collector collector([&](const Collector::InFlight& in_flight,
                          const tasq::Result<tasq::WhatIfReport>& report,
                          Clock::time_point done) {
    size_t slot = in_flight.slot;
    result.latency_us[slot] = MicrosBetween(due[slot], done);
    if (!report.ok()) {
      ++collected.failed;
      return;
    }
    collected.Record(report.value(), expected[in_flight.item]);
  });
  tasq::WhatIfReport buffer;
  for (size_t i = 0; i < count; ++i) {
    size_t item = stream.Next();
    const tasq::ScoreRequest& request = setup.pool.requests[item];
    WaitUntil(due[i]);
    result.late_us[i] = MicrosBetween(due[i], Clock::now());
    if (server.TryScoreCached(request, &buffer)) {
      result.latency_us[i] = MicrosBetween(due[i], Clock::now());
      ++result.hits;
      tally.Record(buffer, expected[item]);
    } else {
      collector.Push({i, item, server.Submit(request)});
    }
  }
  collector.Finish();
  tally.Merge(collected);
  return result;
}

/// Closed-loop phase: at most kClosedLoopWindow submitted requests in
/// flight, for `seconds`. Returns the median, over kThroughputWindows equal
/// windows, of completed requests per second.
double RunClosedLoop(ServeSetup& setup, const std::vector<Expected>& expected,
                     Stream& stream, double seconds, Tally& tally) {
  tasq::PccServer& server = *setup.server;
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  double window_seconds = seconds / kThroughputWindows;
  auto window_of = [&](Clock::time_point t) {
    return static_cast<size_t>(Seconds(start, t) / window_seconds);
  };
  std::vector<uint64_t> sent_done(kThroughputWindows, 0);
  std::vector<uint64_t> collected_done(kThroughputWindows, 0);
  std::atomic<size_t> outstanding{0};
  Tally collected;
  Collector collector([&](const Collector::InFlight& in_flight,
                          const tasq::Result<tasq::WhatIfReport>& report,
                          Clock::time_point done) {
    // Release the window slot first; the checks below are the client's.
    outstanding.fetch_sub(1, std::memory_order_relaxed);
    size_t window = window_of(done);
    if (window < collected_done.size()) ++collected_done[window];
    if (!report.ok()) {
      ++collected.failed;
      return;
    }
    collected.Record(report.value(), expected[in_flight.item]);
  });
  tasq::WhatIfReport buffer;
  while (Clock::now() < end) {
    size_t item = stream.Next();
    const tasq::ScoreRequest& request = setup.pool.requests[item];
    if (server.TryScoreCached(request, &buffer)) {
      size_t window = window_of(Clock::now());
      if (window < sent_done.size()) ++sent_done[window];
      tally.Record(buffer, expected[item]);
      continue;
    }
    while (outstanding.load(std::memory_order_relaxed) >= kClosedLoopWindow) {
      std::this_thread::yield();
    }
    outstanding.fetch_add(1, std::memory_order_relaxed);
    collector.Push({0, item, server.Submit(request)});
  }
  collector.Finish();
  tally.Merge(collected);
  std::vector<double> rates;
  for (int w = 0; w < kThroughputWindows; ++w) {
    rates.push_back(static_cast<double>(sent_done[w] + collected_done[w]) /
                    window_seconds);
  }
  return Median(rates);
}

/// The layers a scoring request passes through, as the ledger books them.
struct ServeLayers {
  explicit ServeLayers(Ledger& ledger)
      : fingerprint(ledger["workload.fingerprint"]),
        cache_get(ledger["serve.cache_get"]),
        job_level(ledger["feat.job_level"]),
        featurize(ledger["feat.featurize"]),
        nn_forward(ledger["nn.forward"]),
        gbdt_predict(ledger["gbdt.predict"]),
        gnn_predict(ledger["gnn.predict"]),
        report(ledger["tasq.report"]),
        cache_put(ledger["serve.cache_put"]) {}

  Ledger::Layer& fingerprint;
  Ledger::Layer& cache_get;
  Ledger::Layer& job_level;  // Featurizer::JobLevelInto + scaling (NN).
  Ledger::Layer& featurize;  // Full Featurize + scaling (XGBoost-PL, GNN).
  Ledger::Layer& nn_forward;
  Ledger::Layer& gbdt_predict;  // XGBoost-PL refit, or a whole SS report.
  Ledger::Layer& gnn_predict;
  Ledger::Layer& report;  // BuildWhatIfReportFromPcc.
  Ledger::Layer& cache_put;
};

/// Scores one cache miss through the public calls PccServer::ProcessBatch
/// makes for a batch of one, with a span around each layer.
tasq::Result<tasq::WhatIfReport> ReplayMiss(
    const tasq::Tasq& pipeline, const tasq::ScoreRequest& request,
    ServeLayers& layers, tasq::NnPccModel::InferenceScratch& scratch) {
  const tasq::Featurizer featurizer;
  const tasq::DatasetScalers& scalers = *pipeline.scalers();
  tasq::PowerLawPcc pcc;
  switch (request.model) {
    case ModelKind::kXgboostSs: {
      // No parametric form: the server scores SS with one
      // BuildWhatIfReport call, dominated by GBDT curve predictions.
      Ledger::Span span(layers.gbdt_predict);
      return tasq::BuildWhatIfReport(pipeline, request.graph, request.model,
                                     request.reference_tokens,
                                     request.grid_points);
    }
    case ModelKind::kNn: {
      constexpr size_t kDim = tasq::Featurizer::kJobFeatureDim;
      double row[kDim];
      {
        Ledger::Span span(layers.job_level);
        tasq::Status featurized = featurizer.JobLevelInto(request.graph, row);
        if (!featurized.ok()) return featurized;
        scalers.job_scaler.TransformRow(row, kDim);
      }
      Ledger::Span span(layers.nn_forward);
      tasq::Status predicted =
          pipeline.nn()->PredictBatchInto(row, 1, scratch, &pcc);
      if (!predicted.ok()) return predicted;
      break;
    }
    case ModelKind::kXgboostPl:
    case ModelKind::kGnn: {
      auto featurize = [&]() {
        Ledger::Span span(layers.featurize);
        tasq::Result<tasq::JobFeatures> features =
            featurizer.Featurize(request.graph);
        if (features.ok()) {
          scalers.job_scaler.Transform(features.value().job_vector);
          scalers.op_scaler.TransformMatrix(features.value().op_matrix);
        }
        return features;
      };
      tasq::Result<tasq::JobFeatures> features = featurize();
      if (!features.ok()) return features.status();
      tasq::Result<tasq::PowerLawPcc> predicted = pcc;
      if (request.model == ModelKind::kXgboostPl) {
        Ledger::Span span(layers.gbdt_predict);
        predicted = pipeline.xgb()->PredictPowerLawPcc(
            features.value().job_vector, request.reference_tokens);
      } else {
        Ledger::Span span(layers.gnn_predict);
        tasq::GraphExample example;
        example.num_nodes = features.value().num_operators;
        example.node_features = std::move(features.value().op_matrix);
        example.norm_adjacency = std::move(features.value().norm_adjacency);
        predicted = pipeline.gnn()->Predict(example);
      }
      if (!predicted.ok()) return predicted.status();
      pcc = predicted.value();
      break;
    }
  }
  Ledger::Span span(layers.report);
  return tasq::BuildWhatIfReportFromPcc(pcc, request.model,
                                        request.reference_tokens,
                                        request.grid_points);
}

/// A thread that runs one task at a time for the ledger replay, standing
/// in for one of the server's pool threads. Run blocks until the task is
/// done, so the replay stays serial.
class ReplayWorker {
 public:
  ReplayWorker() : thread_([this] { Loop(); }) {}
  ~ReplayWorker() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    changed_.notify_all();
    thread_.join();
  }
  ReplayWorker(const ReplayWorker&) = delete;
  ReplayWorker& operator=(const ReplayWorker&) = delete;

  void Run(const std::function<void()>& task) {
    std::unique_lock<std::mutex> lock(mutex_);
    task_ = &task;
    changed_.notify_all();
    changed_.wait(lock, [this] { return task_ == nullptr; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      changed_.wait(lock, [this] { return stopping_ || task_ != nullptr; });
      if (task_ == nullptr) return;
      const std::function<void()>* task = task_;
      lock.unlock();
      (*task)();
      lock.lock();
      task_ = nullptr;
      changed_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable changed_;
  const std::function<void()>* task_ = nullptr;
  bool stopping_ = false;
  std::thread thread_;  // Last: started after the members it uses.
};

/// Ledger phase of the traced run, `seconds` long: serves the stream
/// serially through the server's public API (end-to-end time, no spans)
/// and replays the same requests against a mirror ReportCache that started
/// from the same contents, with a span around every layer.
void RunLedger(const ServeSpec& spec, const tasq::Tasq& pipeline,
               const Pool& pool, const std::vector<Expected>& expected,
               uint64_t seed, double seconds, Outcome& outcome) {
  tasq::PccServer server(pipeline);
  FillCache(server, pool);
  tasq::ReportCache mirror(kCacheCapacity);
  ForEachFillEntry(pool, [&](size_t i) {
    const tasq::ScoreRequest& request = pool.requests[i];
    tasq::Result<tasq::WhatIfReport> report = tasq::BuildWhatIfReport(
        pipeline, request.graph, request.model, request.reference_tokens,
        request.grid_points);
    if (!report.ok()) Die("mirror fill", report.status());
    mirror.Put(KeyFor(request, request.graph.Fingerprint()),
               std::move(report.value()));
  });

  // Alternate end-to-end and replay chunks over the same requests, so
  // both sample the machine under the same conditions.
  constexpr int kChunks = 8;
  Stream stream(spec, pool, seed);
  Stream replay(spec, pool, seed);
  Ledger ledger;
  ServeLayers layers(ledger);
  tasq::WhatIfReport buffer;
  ReplayWorker workers[2];
  size_t requests = 0;
  uint64_t served_hits = 0;
  uint64_t served_failed = 0;
  uint64_t replay_hits = 0;
  uint64_t replay_misses = 0;
  uint64_t replay_failed = 0;
  uint64_t mismatched = 0;
  uint64_t allocations = 0;
  double e2e_seconds = 0.0;
  double queue_wait_ms = 0.0;
  auto chunk_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kChunks));
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    tasq::ServerStats before = server.Stats();
    uint64_t allocations_before = tasq_test::AllocationCount();
    size_t chunk_requests = 0;
    Clock::time_point start = Clock::now();
    Clock::time_point end = start + chunk_length;
    while (Clock::now() < end) {
      const tasq::ScoreRequest& request = pool.requests[stream.Next()];
      ++chunk_requests;
      if (server.TryScoreCached(request, &buffer)) {
        ++served_hits;
      } else if (!server.Submit(request).get().ok()) {
        ++served_failed;
      }
    }
    e2e_seconds += SecondsSince(start);
    allocations += tasq_test::AllocationCount() - allocations_before;
    queue_wait_ms +=
        server.Stats().queue_wait.total_ms - before.queue_wait.total_ms;
    requests += chunk_requests;

    for (size_t i = 0; i < chunk_requests; ++i) {
      size_t item = replay.Next();
      const tasq::ScoreRequest& request = pool.requests[item];
      uint64_t fingerprint = 0;
      {
        Ledger::Span span(layers.fingerprint);
        fingerprint = request.graph.Fingerprint();
      }
      tasq::ReportCacheKey key = KeyFor(request, fingerprint);
      bool hit = false;
      {
        Ledger::Span span(layers.cache_get);
        hit = mirror.GetInto(key, &buffer);
      }
      if (hit) {
        ++replay_hits;
        continue;
      }
      // A miss is scored on a pool thread; the two replay threads take
      // turns the way the server's two idle pool threads do.
      workers[replay_misses++ % 2].Run([&] {
        // Serially submitted, every miss is its own drain activation with
        // fresh batch scratch.
        tasq::NnPccModel::InferenceScratch scratch;
        tasq::Result<tasq::WhatIfReport> report =
            ReplayMiss(pipeline, request, layers, scratch);
        if (!report.ok()) {
          ++replay_failed;
          return;
        }
        if (ReportDigest(report.value()) != expected[item].digest) {
          ++mismatched;
        }
        // The server's FulfillOk hands Put a copy and keeps the report
        // for the promise; so does the replay.
        Ledger::Span span(layers.cache_put);
        mirror.Put(key, report.value());
      });
    }
  }

  outcome.attempted += 2 * requests;
  outcome.failed += served_failed + replay_failed + mismatched;
  outcome.Check(served_hits == replay_hits,
                "ledger replay hit the mirror cache as often as the server");
  if (mismatched > 0) outcome.Fail("ledger replay report differs");

  double n = static_cast<double>(requests);
  double e2e_us = 1e6 * e2e_seconds / n;
  double queue_wait_us = 1e3 * queue_wait_ms / n;
  auto& metrics = outcome.metrics;
  double layer_us = 0.0;
  for (const char* name :
       {"workload.fingerprint", "serve.cache_get", "feat.job_level",
        "feat.featurize", "nn.forward", "gbdt.predict", "gnn.predict",
        "tasq.report", "serve.cache_put"}) {
    const Ledger::Layer& layer = ledger[name];
    metrics[std::string(name) + "_us"] = 1e6 * layer.seconds / n;
    metrics[std::string(name) + "_allocs"] =
        static_cast<double>(layer.allocations) / n;
    layer_us += 1e6 * layer.seconds / n;
  }
  metrics["serve.e2e_us"] = e2e_us;
  metrics["serve.ledger_queue_wait_us"] = queue_wait_us;
  metrics["serve.unattributed_us"] = e2e_us - layer_us - queue_wait_us;
  metrics["serve.allocs_per_request"] = static_cast<double>(allocations) / n;
  metrics["serve.unattributed_allocs"] =
      (static_cast<double>(allocations) -
       static_cast<double>(ledger.TotalAllocations())) / n;
  metrics["serve.ledger_requests"] = n;
  outcome.Note("ledger: %zu requests, %.2f us/request end to end, %.2f us "
               "in layers, %.2f us queue wait, %.2f us unattributed (%.1f%%)",
               requests, e2e_us, layer_us, queue_wait_us,
               e2e_us - layer_us - queue_wait_us,
               100.0 * (e2e_us - layer_us - queue_wait_us) / e2e_us);
}

void RunServe(const ServeSpec& spec, const RunOptions& options,
              Outcome& outcome) {
  // Each round sets up from scratch (pipeline, pool, a fresh server with
  // its own threads and a full cache), then runs the open-loop and the
  // closed-loop phase on it. Medians over rounds keep one unlucky server
  // from setting the run's figures.
  std::vector<double> setup_seconds;
  std::vector<double> round_p50;
  std::vector<double> round_throughput;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<Expected> expected;
  std::unique_ptr<ServeSetup> setup;
  Tally open_tally;
  Tally closed_tally;
  uint64_t hits = 0;
  uint64_t server_failed = 0;
  uint64_t batches = 0;
  uint64_t batched_requests = 0;
  uint64_t waits = 0;
  double wait_ms = 0.0;
  size_t max_queue_depth = 0;
  size_t cache_size = 0;
  for (int round = 0; round < kRounds; ++round) {
    setup.reset();
    Clock::time_point start = Clock::now();
    setup = SetUp(spec, options.seed);
    setup_seconds.push_back(SecondsSince(start));
    if (expected.empty()) {
      expected = ExpectedReports(*setup->pipeline, setup->pool);
    }
    Stream stream(spec, setup->pool, options.seed);
    tasq::ServerStats before = setup->server->Stats();
    OpenLoopResult open =
        RunOpenLoop(spec, *setup, expected, stream,
                    kOpenLoopShare * options.seconds / kRounds, open_tally);
    tasq::ServerStats open_stats = setup->server->Stats();
    round_throughput.push_back(RunClosedLoop(
        *setup, expected, stream,
        (1.0 - kOpenLoopShare) * options.seconds / kRounds, closed_tally));
    tasq::ServerStats after = setup->server->Stats();

    round_p50.push_back(Quantile(open.latency_us, 0.5));
    latency_us.insert(latency_us.end(), open.latency_us.begin(),
                      open.latency_us.end());
    late_us.insert(late_us.end(), open.late_us.begin(), open.late_us.end());
    hits += open.hits;
    server_failed += after.failed - before.failed;
    // Batching and queueing under the open loop's fixed offered load.
    batches += open_stats.batches - before.batches;
    batched_requests += open_stats.batched_requests - before.batched_requests;
    waits += open_stats.queue_wait.count - before.queue_wait.count;
    wait_ms += open_stats.queue_wait.total_ms - before.queue_wait.total_ms;
    max_queue_depth = std::max(max_queue_depth, open_stats.max_queue_depth);
    cache_size = after.cache_size;
  }

  Tally tally = open_tally;
  tally.Merge(closed_tally);
  outcome.attempted += tally.served + tally.failed;
  outcome.failed += tally.failed + tally.mismatched;
  if (tally.failed > 0) outcome.Fail("served requests failed");
  if (tally.mismatched > 0) outcome.Fail("served report differs from direct");
  outcome.Check(server_failed == 0, "server counted no failures");

  size_t samples = latency_us.size();
  double p50 = Median(round_p50);
  double p99 = Quantile(latency_us, 0.99);
  double throughput = Median(round_throughput);
  outcome.Note("%s seed %llu: %zu open-loop requests at %.0f/s in %d "
               "rounds (%.1f%% cache hits), p50 %.1f us, p99 %.1f us, "
               "generator late p99 %.1f us; closed loop %.0f req/s",
               spec.name, static_cast<unsigned long long>(options.seed),
               samples, spec.rate, kRounds,
               100.0 * static_cast<double>(hits) / static_cast<double>(samples),
               p50, p99, Quantile(late_us, 0.99), throughput);
  auto& metrics = outcome.metrics;
  if (!options.trace) {
    metrics["setup_s"] = Median(setup_seconds);
    metrics["p50_us"] = p50;
    metrics["throughput_per_s"] = throughput;
    metrics["holdout_ape_pct"] =
        HoldoutApePct(*setup->pipeline, ObserveHoldout(options.seed));
    // Over the open-loop requests, which every round serves identically.
    metrics["tokens_saved_pct"] =
        100.0 * open_tally.saved_tokens / open_tally.requested_tokens;
    metrics["peak_rss_mb"] = PeakRssMb();
    return;
  }
  metrics["serve.p99_us"] = p99;
  metrics["gen.late_p99_us"] = Quantile(late_us, 0.99);
  metrics["serve.latency_samples"] = static_cast<double>(samples);
  metrics["serve.cache_hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(samples);
  metrics["serve.cache_size"] = static_cast<double>(cache_size);
  metrics["serve.batch_size"] =
      batches > 0 ? static_cast<double>(batched_requests) /
                        static_cast<double>(batches)
                  : 0.0;
  metrics["serve.max_queue_depth"] = static_cast<double>(max_queue_depth);
  metrics["serve.queue_wait_us"] =
      waits > 0 ? 1e3 * wait_ms / static_cast<double>(waits) : 0.0;
  setup->server.reset();  // The ledger starts its own server.
  RunLedger(spec, *setup->pipeline, setup->pool, expected, options.seed,
            0.25 * options.seconds, outcome);
}

}  // namespace

void RunServeRecurring(const RunOptions& options, Outcome& outcome) {
  RunServe(kRecurring, options, outcome);
}

void RunServeAdhoc(const RunOptions& options, Outcome& outcome) {
  RunServe(kAdhoc, options, outcome);
}

}  // namespace perfbench
