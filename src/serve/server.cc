#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/sync/pause.h"

namespace tasq {

namespace {

// How long the last awake worker polls an empty queue before parking. It
// covers the gap between misses of a busy client (tens of microseconds)
// many times over, and costs at most this much CPU per idle spell.
constexpr auto kPollWindow = std::chrono::microseconds(500);

// Integer nanoseconds between two steady_clock points, for the latency
// histograms; steady_clock never runs backwards, so the cast is safe.
uint64_t NsBetween(std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

// Allocation-free (hot-path callee).
uint64_t NsSince(std::chrono::steady_clock::time_point start) {
  return NsBetween(start, std::chrono::steady_clock::now());
}

}  // namespace

std::string ServerStats::ToText() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "requests: %llu received, %llu completed, %llu failed\n",
                static_cast<unsigned long long>(received),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(failed));
  out += line;
  uint64_t lookups = cache_hits + cache_misses;
  std::snprintf(line, sizeof(line),
                "cache:    %llu hits / %llu lookups (%.1f%%), "
                "%llu evictions, %zu entries\n",
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(lookups),
                lookups > 0 ? 100.0 * static_cast<double>(cache_hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                static_cast<unsigned long long>(cache_evictions), cache_size);
  out += line;
  std::snprintf(line, sizeof(line),
                "batches:  %llu scored, mean size %.2f\n",
                static_cast<unsigned long long>(batches),
                batches > 0 ? static_cast<double>(batched_requests) /
                                  static_cast<double>(batches)
                            : 0.0);
  out += line;
  std::snprintf(line, sizeof(line),
                "queue:    depth %zu, max %zu, capacity %zu\n", queue_depth,
                max_queue_depth, queue_capacity);
  out += line;
  std::snprintf(line, sizeof(line),
                "latency:  queue-wait mean %.3f ms (max %.3f), "
                "inference/batch mean %.3f ms (max %.3f)\n",
                queue_wait.mean_ms(), queue_wait.max_ms, inference.mean_ms(),
                inference.max_ms);
  out += line;
  std::snprintf(line, sizeof(line),
                "          end-to-end mean %.3f ms (max %.3f, "
                "p50 %.3f, p99 %.3f)\n",
                end_to_end.mean_ms(), end_to_end.max_ms,
                end_to_end.p50_ms(), end_to_end.p99_ms());
  out += line;
  return out;
}

PccServer::PccServer(const Tasq& tasq, PccServerOptions options)
    : tasq_(tasq), options_(options), cache_(options.cache_capacity) {
  if (options_.num_threads == 0) {
    options_.num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  // Relaxed: no worker has started yet.
  awake_workers_.store(options_.num_threads, std::memory_order_relaxed);
  // No lock: the workers never touch workers_, and Shutdown cannot run
  // before the constructor returns.
  workers_.reserve(options_.num_threads);
  for (unsigned t = 0; t < options_.num_threads; ++t) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

PccServer::~PccServer() { Shutdown(); }

std::future<Result<WhatIfReport>> PccServer::Submit(ScoreRequest request) {
  Pending pending;
  pending.submitted_at = std::chrono::steady_clock::now();
  std::future<Result<WhatIfReport>> future = pending.promise.get_future();
  received_.fetch_add(1, std::memory_order_relaxed);

  // Before the fingerprint: a NaN key never equals itself, so a malformed
  // request would otherwise insert an entry no lookup can hit.
  Status valid =
      ValidateWhatIfRequest(request.reference_tokens, request.grid_points);
  if (!valid.ok()) {
    FulfillError(pending, std::move(valid));
    return future;
  }
  pending.key.fingerprint = request.graph.Fingerprint();
  pending.key.model = request.model;
  pending.key.reference_tokens = request.reference_tokens;
  pending.key.grid_points = request.grid_points;
  pending.request = std::move(request);

  // Fingerprint-cache fast path: recurring jobs (the dominant workload)
  // skip the queue and model inference entirely. (TryScoreCached is the
  // future-free flavor of this same path.)
  WhatIfReport cached;
  if (cache_.GetInto(pending.key, &cached)) {
    FulfillOk(pending, std::move(cached), /*from_cache=*/true);
    return future;
  }
  // Counted here rather than taken from the cache's own miss count: a
  // request that TryScoreCached already missed looks the cache up twice
  // but is one miss. Relaxed: published like the other request counters.
  cache_misses_.fetch_add(1, std::memory_order_relaxed);

  bool enqueued = false;
  {
    MutexLock lock(mutex_);
    while (!shutting_down_ && queue_.size() >= options_.queue_capacity) {
      space_free_cv_.Wait(mutex_);
    }
    if (!shutting_down_) {
      queue_.push_back(std::move(pending));
      max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
      queued_.store(queue_.size(), std::memory_order_relaxed);
      enqueued = true;
    }
  }
  if (!enqueued) {
    FulfillError(pending, Status::FailedPrecondition("server is shut down"));
    return future;
  }
  // Wake after unlocking, so the woken worker does not block on mutex_.
  // Skipping the wake while a worker polls cannot strand the request: a
  // poller decrements polling_workers_ before it re-checks the queue
  // under mutex_. If that re-check ran before this push, mutex_ orders
  // the decrement before this load, which then sees it and wakes; if it
  // runs after, it finds the request. Relaxed: mutex_ is the ordering.
  if (polling_workers_.load(std::memory_order_relaxed) == 0) {
    work_ready_cv_.NotifyOne();
  }
  return future;
}

bool PccServer::TryScoreCached(const ScoreRequest& request,
                               WhatIfReport* out) {
  auto submitted_at = std::chrono::steady_clock::now();
  ReportCacheKey key;
  key.fingerprint = request.graph.Fingerprint();
  key.model = request.model;
  key.reference_tokens = request.reference_tokens;
  key.grid_points = request.grid_points;
  if (!cache_.GetInto(key, out)) {
    // Neither received_ nor cache_misses_ moves: the caller's follow-up
    // Submit counts the request, and its miss, exactly once.
    return false;
  }
  // A hit is a fully served request: count it exactly like a Submit-path
  // completion. Relaxed is enough — the counts are published to the
  // caller by this function's return (sequenced-before) and to other
  // threads by whatever edge hands them the result.
  received_.fetch_add(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  end_to_end_hist_.Observe(NsSince(submitted_at));
  return true;
}

Result<WhatIfReport> PccServer::Score(ScoreRequest request) {
  return Submit(std::move(request)).get();
}

std::vector<Result<WhatIfReport>> PccServer::ScoreBatch(
    std::vector<ScoreRequest> requests) {
  std::vector<std::future<Result<WhatIfReport>>> futures;
  futures.reserve(requests.size());
  for (ScoreRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  std::vector<Result<WhatIfReport>> results;
  results.reserve(futures.size());
  for (auto& future : futures) {
    results.push_back(future.get());
  }
  return results;
}

void PccServer::Shutdown() {
  // Swapping the threads out under the lock makes Shutdown idempotent and
  // safe against concurrent callers: exactly one of them joins.
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
    to_join.swap(workers_);
  }
  // Producers blocked on backpressure observe the flag and reject their
  // requests; idle workers wake up to exit.
  space_free_cv_.NotifyAll();
  work_ready_cv_.NotifyAll();
  // Workers exit only once the queue is empty, so every request accepted
  // before the flag flipped is scored and its future fulfilled.
  for (std::thread& worker : to_join) worker.join();
}

void PccServer::WorkerLoop() {
  // Lives as long as the worker: once its vectors have grown to the
  // realized batch size, no batch reallocates them, however long the
  // worker sat idle in between.
  BatchScratch scratch;
  for (;;) {
    scratch.batch.clear();
    if (!NextBatch(scratch.batch)) return;  // Shutting down and drained.
    auto picked_at = std::chrono::steady_clock::now();
    // Both batch counts land before ProcessBatch resolves any future of
    // this batch, so a caller holding a result sees them in Stats().
    for (const Pending& pending : scratch.batch) {
      queue_wait_hist_.Observe(NsBetween(pending.submitted_at, picked_at));
    }
    // Relaxed: independent event counter, published like the histograms.
    batches_.fetch_add(1, std::memory_order_relaxed);
    ProcessBatch(scratch);
    inference_hist_.Observe(NsSince(picked_at));
  }
}

bool PccServer::NextBatch(std::vector<Pending>& batch) {
  // Poll only as the last awake worker: while another worker is scoring,
  // a poller would take CPU from it rather than save a wake-up.
  // Relaxed: both reads are hints; the locked re-check below decides.
  if (queued_.load(std::memory_order_relaxed) == 0 &&
      awake_workers_.load(std::memory_order_relaxed) == 1) {
    PollForWork();
  }
  {
    MutexLock lock(mutex_);
    if (!shutting_down_ && queue_.empty()) {
      // Relaxed: awake_workers_ only changes under mutex_.
      awake_workers_.fetch_sub(1, std::memory_order_relaxed);
      while (!shutting_down_ && queue_.empty()) work_ready_cv_.Wait(mutex_);
      awake_workers_.fetch_add(1, std::memory_order_relaxed);
    }
    if (queue_.empty()) return false;  // Shutting down and fully drained.
    size_t take = std::min(options_.max_batch, queue_.size());
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  space_free_cv_.NotifyAll();
  return true;
}

void PccServer::PollForWork() {
  // Relaxed: mutex_ orders these counts against Submit (see Submit).
  polling_workers_.fetch_add(1, std::memory_order_relaxed);
  auto deadline = std::chrono::steady_clock::now() + kPollWindow;
  // Relaxed: seeing the request early only ends the poll; NextBatch
  // takes it under mutex_.
  for (int spins = 0; queued_.load(std::memory_order_relaxed) == 0;
       ++spins) {
    if (spins < 64) {
      CpuRelax();
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    // Yield rather than pause: a thread sharing this CPU (the submitter
    // itself, say) gets to run, and the kernel can move one of the two.
    std::this_thread::yield();
  }
  // Before NextBatch's locked re-check of the queue; see Submit.
  polling_workers_.fetch_sub(1, std::memory_order_relaxed);
}

void PccServer::ProcessBatch(BatchScratch& scratch) {
  std::vector<Pending>& batch = scratch.batch;

  // Group the parametric requests per model kind so the batch shares
  // inference (one NN forward pass per group); XGBoost-SS has no
  // parametric form and scores per request.
  for (std::vector<size_t>& group : scratch.groups) group.clear();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].request.model != ModelKind::kXgboostSs) {
      scratch.groups[static_cast<size_t>(batch[i].request.model)]
          .push_back(i);
    }
  }
  for (const std::vector<size_t>& group : scratch.groups) {
    if (group.empty()) continue;
    ModelKind kind = batch[group.front()].request.model;
    scratch.graphs.clear();
    scratch.reference_tokens.clear();
    for (size_t i : group) {
      scratch.graphs.push_back(&batch[i].request.graph);
      scratch.reference_tokens.push_back(batch[i].request.reference_tokens);
    }
    scratch.pccs.resize(group.size());
    Status predicted = tasq_.PredictPccBatchInto(
        scratch.graphs.data(), group.size(), kind,
        scratch.reference_tokens.data(), scratch.tasq, scratch.pccs.data());
    if (predicted.ok()) {
      for (size_t g = 0; g < group.size(); ++g) {
        Pending& pending = batch[group[g]];
        Result<WhatIfReport> report = BuildWhatIfReportFromPcc(
            scratch.pccs[g], kind, pending.request.reference_tokens,
            pending.request.grid_points);
        if (report.ok()) {
          FulfillOk(pending, std::move(report.value()), /*from_cache=*/false);
        } else {
          FulfillError(pending, report.status());
        }
      }
    } else {
      // A batch fails as a unit (e.g., one unfeaturizable graph); rescore
      // individually so each request gets its own verdict, exactly as the
      // sequential path would.
      for (size_t i : group) ScoreOne(batch[i]);
    }
  }
  for (Pending& pending : batch) {
    if (pending.request.model == ModelKind::kXgboostSs) {
      ScoreOne(pending);
    }
  }
}

void PccServer::ScoreOne(Pending& pending) {
  Result<WhatIfReport> report = BuildWhatIfReport(
      tasq_, pending.request.graph, pending.request.model,
      pending.request.reference_tokens, pending.request.grid_points);
  if (report.ok()) {
    FulfillOk(pending, std::move(report.value()), /*from_cache=*/false);
  } else {
    FulfillError(pending, report.status());
  }
}

void PccServer::FulfillOk(Pending& pending, WhatIfReport report,
                          bool from_cache) {
  // The capacity check lives here, not just inside Put: with caching
  // disabled the by-value parameter copy (curve vector and all) would be
  // the cold path's biggest per-request allocation, paid for nothing.
  if (!from_cache && options_.cache_capacity > 0) {
    cache_.Put(pending.key, report);
  }
  uint64_t total_ns = NsSince(pending.submitted_at);
  // Count before resolving the future so a caller that observed the result
  // never reads a Stats() snapshot that has not seen it yet — set_value /
  // future::get is the happens-before edge that publishes these relaxed
  // updates to the waiter.
  completed_.fetch_add(1, std::memory_order_relaxed);
  end_to_end_hist_.Observe(total_ns);
  pending.promise.set_value(std::move(report));
}

void PccServer::FulfillError(Pending& pending, Status status) {
  uint64_t total_ns = NsSince(pending.submitted_at);
  failed_.fetch_add(1, std::memory_order_relaxed);
  end_to_end_hist_.Observe(total_ns);
  pending.promise.set_value(std::move(status));
}

ServerStats PccServer::Stats() const {
  ServerStats stats;
  stats.received = received_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  // Relaxed: monitoring read, exact across a future/join edge.
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.queue_wait = queue_wait_hist_.TakeSnapshot();
  stats.batched_requests = stats.queue_wait.count;
  stats.inference = inference_hist_.TakeSnapshot();
  stats.end_to_end = end_to_end_hist_.TakeSnapshot();
  {
    MutexLock lock(mutex_);
    stats.queue_depth = queue_.size();
    stats.max_queue_depth = max_queue_depth_;
    stats.queue_capacity = options_.queue_capacity;
  }
  ReportCacheCounters cache = cache_.counters();
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  stats.cache_evictions = cache.evictions;
  stats.cache_size = cache.size;
  return stats;
}

}  // namespace tasq
