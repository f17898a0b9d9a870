#ifndef TASQ_SERVE_SERVER_H_
#define TASQ_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/hot.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/cache.h"
#include "serve/latency_histogram.h"
#include "tasq/tasq.h"
#include "tasq/what_if.h"
#include "workload/job_graph.h"

namespace tasq {

/// One scoring request: the compile-time artifact TASQ sees at submission
/// (paper §2.2 — the job's operator graph plus the tokens the user asked
/// for), and which model family should score it.
struct ScoreRequest {
  JobGraph graph;
  ModelKind model = ModelKind::kNn;
  double reference_tokens = 1.0;
  size_t grid_points = 9;
};

/// Point-in-time snapshot of a PccServer's behavior since construction.
struct ServerStats {
  /// Requests accepted by Submit (cache hits included).
  uint64_t received = 0;
  /// Requests fulfilled with an OK report.
  uint64_t completed = 0;
  /// Requests fulfilled with an error status (shutdown rejections included).
  uint64_t failed = 0;

  /// Requests answered from the cache (TryScoreCached hits included).
  uint64_t cache_hits = 0;
  /// Requests Submit found missing from the cache; a TryScoreCached miss
  /// followed by Submit counts once.
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_size = 0;

  /// Worker-side batches scored and the requests they covered
  /// (batched_requests / batches = realized mean batch size).
  /// batched_requests is queue_wait.count.
  uint64_t batches = 0;
  uint64_t batched_requests = 0;

  size_t queue_depth = 0;
  size_t max_queue_depth = 0;
  size_t queue_capacity = 0;

  /// Per-request time between enqueue and worker pickup. Recorded at
  /// pickup, so it covers every request whose future has resolved.
  LatencyHistogram::Snapshot queue_wait;
  /// Per-batch scoring time, from pickup until the batch's last future
  /// resolves. Recorded after those futures resolve, so count == batches
  /// holds once the server is quiescent (e.g. after Shutdown).
  LatencyHistogram::Snapshot inference;
  /// Per-request time from Submit to fulfillment (TryScoreCached hits
  /// included).
  LatencyHistogram::Snapshot end_to_end;

  /// Renders the snapshot as an aligned human-readable block.
  std::string ToText() const;
};

/// Configuration of the serving layer.
struct PccServerOptions {
  /// Worker threads scoring requests (0 = hardware concurrency).
  unsigned num_threads = 2;
  /// Bound on requests waiting to be scored; Submit blocks (backpressure)
  /// while the queue is at capacity.
  size_t queue_capacity = 1024;
  /// Most requests a worker pulls per batch. Batched NN requests share one
  /// forward pass (Tasq::PredictPccBatchInto).
  size_t max_batch = 16;
  /// LRU entries of finished reports, keyed by job-graph fingerprint; 0
  /// disables caching.
  size_t cache_capacity = 4096;
};

/// The compile-time scoring service of paper §2.2: accepts what-if scoring
/// requests for submitted jobs, answers recurring jobs from a fingerprint
/// cache, and batches the rest through the trained pipeline on
/// `num_threads` worker threads the server starts and joins itself.
///
/// Hand-off: a worker that finds the queue empty while every other worker
/// is parked polls it for a short window before parking itself, and
/// Submit wakes a parked worker only when no worker is polling. Under a
/// steady stream of misses the submitting thread therefore hands requests
/// to a worker that is already running instead of waking one per
/// request; a wake-up that the kernel places on the submitter's own CPU
/// would make the submitter pay for the worker's scoring.
///
/// The server borrows the pipeline: `tasq` must stay alive and untouched
/// (no Train/Save/move) for the server's lifetime. Scoring a trained Tasq
/// is const and thread-safe (see tasq.h), which is what lets every worker
/// share one pipeline without locks.
///
/// Results are deterministic: a request scores to the same report whether
/// it is served sequentially, batched with others, or replayed from the
/// cache (serve_test.cc pins all three down byte-for-byte).
class PccServer {
 public:
  explicit PccServer(const Tasq& tasq, PccServerOptions options = {});
  ~PccServer();

  PccServer(const PccServer&) = delete;
  PccServer& operator=(const PccServer&) = delete;

  /// Enqueues one request and returns the future report. Blocks while the
  /// request queue is at capacity. Cache hits resolve immediately without
  /// entering the queue. Malformed scoring numbers (see
  /// ValidateWhatIfRequest) resolve to InvalidArgument before the cache
  /// lookup, so they are never cached. After Shutdown the future resolves
  /// to FailedPrecondition.
  std::future<Result<WhatIfReport>> Submit(ScoreRequest request)
      TASQ_EXCLUDES(mutex_);

  /// Synchronous fingerprint-cache fast path: on a hit, copies the cached
  /// report into `*out` and returns true; on a miss, returns false
  /// leaving `*out` untouched (the caller then goes through Submit).
  /// This is the zero-allocation, zero-lock serving path: a caller that
  /// reuses one `WhatIfReport` buffer across requests pays no heap
  /// allocation, no future/promise machinery, and no lock at all — each
  /// cache shard's table is an immutable snapshot behind its own
  /// Snapshot<Table> (src/common/sync/snapshot.h), and a lookup pins the
  /// key's shard lock-free. Pinned at exactly 0 allocations per warm hit
  /// by tests/hot_path_test.cc and enforced transitively by the hot set
  /// of scripts/tasq_check.py (whose hot-mutex rule is the lock-freedom
  /// regression gate: no lock may appear anywhere in the hot closure).
  /// Hits count into received/completed/cache_hits and end-to-end
  /// latency exactly like Submit-path requests; a miss counts nothing,
  /// and the caller's follow-up Submit counts the request once.
  TASQ_HOT bool TryScoreCached(const ScoreRequest& request,
                               WhatIfReport* out)
      TASQ_EXCLUDES(mutex_);

  /// Blocking convenience: Submit + wait.
  TASQ_NODISCARD Result<WhatIfReport> Score(ScoreRequest request);

  /// Submits every request, then waits for all of them. Entry i of the
  /// result corresponds to requests[i].
  std::vector<Result<WhatIfReport>> ScoreBatch(
      std::vector<ScoreRequest> requests);

  /// Graceful shutdown: stops accepting requests, scores everything
  /// already enqueued, fulfills every outstanding future, joins the
  /// workers. Idempotent; also runs from the destructor.
  void Shutdown() TASQ_EXCLUDES(mutex_);

  /// Consistent snapshot of counters and latency accumulators.
  ServerStats Stats() const TASQ_EXCLUDES(mutex_);

 private:
  struct Pending {
    ScoreRequest request;
    ReportCacheKey key;
    std::promise<Result<WhatIfReport>> promise;
    std::chrono::steady_clock::time_point submitted_at;
  };

  /// One worker's batch-assembly buffers, owned by its WorkerLoop for
  /// the server's whole lifetime and never shared, so no lock guards
  /// them. Every vector is cleared, not freed, between batches: once
  /// their capacities reach the realized batch size, assembling a batch
  /// allocates nothing (the TasqBatchScratch idiom). `groups` holds the
  /// batch indices of each parametric model kind; `graphs`,
  /// `reference_tokens` and `pccs` are the per-group inputs and outputs
  /// of Tasq::PredictPccBatchInto, and `tasq` its feature-row and
  /// NN-activation buffers.
  struct BatchScratch {
    std::vector<Pending> batch;
    std::vector<size_t> groups[kModelKindCount];
    std::vector<const JobGraph*> graphs;
    std::vector<double> reference_tokens;
    std::vector<PowerLawPcc> pccs;
    TasqBatchScratch tasq;
  };

  /// One worker thread: waits for pending requests, pulls up to
  /// max_batch of them, scores them; returns once shutdown has begun and
  /// the queue is empty.
  void WorkerLoop() TASQ_EXCLUDES(mutex_);
  /// Moves the next batch (up to max_batch requests) into `batch`, first
  /// polling when this is the only awake worker, then parking on
  /// work_ready_cv_. Returns false once shutdown has begun and the queue
  /// is empty.
  bool NextBatch(std::vector<Pending>& batch) TASQ_EXCLUDES(mutex_);
  /// Polls queued_ until a request arrives or the poll window ends.
  void PollForWork();
  void ProcessBatch(BatchScratch& scratch);
  void ScoreOne(Pending& pending);
  void FulfillOk(Pending& pending, WhatIfReport report, bool from_cache);
  void FulfillError(Pending& pending, Status status);

  const Tasq& tasq_;
  PccServerOptions options_;  // Normalized in the ctor, immutable after.
  ReportCache cache_;

  // Request-path state: the bounded pending queue and its backpressure.
  mutable Mutex mutex_;
  CondVar space_free_cv_;    // Signals producers: queue space or shutdown.
  CondVar work_ready_cv_;    // Signals workers: a request or shutdown.
  std::deque<Pending> queue_ TASQ_GUARDED_BY(mutex_);
  bool shutting_down_ TASQ_GUARDED_BY(mutex_) = false;
  size_t max_queue_depth_ TASQ_GUARDED_BY(mutex_) = 0;

  // Hand-off state (see the class comment). Both are written under mutex_
  // and read without it: queued_ by a polling worker, awake_workers_ by a
  // worker deciding whether to poll. Relaxed throughout — the lock a
  // worker takes after either read is what orders the queue itself.
  std::atomic<size_t> queued_{0};          // queue_.size()
  std::atomic<unsigned> awake_workers_{0};  // workers not parked
  /// Workers inside PollForWork. Submit skips the wake-up while it is
  /// non-zero; see Submit for why that cannot lose a request.
  std::atomic<unsigned> polling_workers_{0};

  // Observability, lock-free so neither the cache-hit fast path
  // (TryScoreCached) nor the worker loop touches a mutex to record.
  // Relaxed ordering suffices — counts are made visible to observers by
  // the promise/future (or TryScoreCached-return) happens-before edge,
  // not by the counters themselves.
  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> cache_misses_{0};
  LatencyHistogram queue_wait_hist_;
  LatencyHistogram inference_hist_;
  LatencyHistogram end_to_end_hist_;

  // Declared last, after everything the workers touch. Started in the
  // constructor, swapped out once under mutex_ by the first Shutdown,
  // which joins them.
  std::vector<std::thread> workers_ TASQ_GUARDED_BY(mutex_);
};

}  // namespace tasq

#endif  // TASQ_SERVE_SERVER_H_
