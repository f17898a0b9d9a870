#ifndef TASQ_SERVE_LATENCY_HISTOGRAM_H_
#define TASQ_SERVE_LATENCY_HISTOGRAM_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/hot.h"
#include "common/sync/pause.h"

namespace tasq {

/// Fixed-bucket latency histogram for the serving request path.
///
/// Buckets are powers of two over nanoseconds (bucket b holds durations
/// whose bit width is b, i.e. [2^(b-1), 2^b)), so Record is a handful of
/// relaxed atomic increments: no allocation, no lock, no per-request
/// state — safe inside TASQ_HOT code, safe from any number of threads.
/// The price is quantile resolution: a reported quantile is the upper
/// edge of its bucket, at worst 2x the true value. For the question the
/// serving layer asks ("is the tail microseconds or milliseconds, and
/// did it regress 10x?") that resolution is plenty; exact quantiles
/// would need per-request samples, which is exactly the allocation the
/// hot path bans.
///
/// Thread-safety: Record is wait-free apart from the max CAS loop (which
/// retries only while racing writers raise the max). TakeSnapshot reads
/// each counter with relaxed loads; a snapshot taken concurrently with
/// writers is approximately consistent (counters may disagree by the
/// in-flight requests), which is the usual contract for monitoring
/// counters. Counters exposed through a happens-before edge (promise
/// fulfillment, join) are exact — serve_test.cc relies on that.
class LatencyHistogram {
 public:
  /// bit_width of a uint64_t is 0..64, one bucket per value.
  static constexpr size_t kBuckets = 65;

  /// Point-in-time copy of the histogram, plus derived statistics
  /// (count / total_ms / max_ms / mean_ms and tail quantiles).
  struct Snapshot {
    uint64_t count = 0;
    double total_ms = 0.0;
    double max_ms = 0.0;
    uint64_t buckets[kBuckets] = {};

    double mean_ms() const { return count > 0 ? total_ms / count : 0.0; }

    /// Upper-edge estimate of the q-quantile (q in [0, 1]) in
    /// milliseconds; 0 when empty. Clamped to max_ms so quantiles never
    /// exceed the observed maximum. Monotone in q.
    double QuantileMs(double q) const {
      if (count == 0) return 0.0;
      double clamped = std::min(std::max(q, 0.0), 1.0);
      uint64_t rank = static_cast<uint64_t>(
          std::ceil(clamped * static_cast<double>(count)));
      if (rank < 1) rank = 1;
      uint64_t seen = 0;
      for (size_t b = 0; b < kBuckets; ++b) {
        seen += buckets[b];
        if (seen >= rank) {
          // Bucket b spans [2^(b-1), 2^b) ns; report the upper edge.
          double upper_ns = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
          return std::min(upper_ns / 1e6, max_ms);
        }
      }
      return max_ms;
    }

    double p50_ms() const { return QuantileMs(0.50); }
    double p99_ms() const { return QuantileMs(0.99); }
  };

  /// Observes one duration. Hot-path safe: relaxed atomics only.
  TASQ_HOT void Observe(uint64_t ns) noexcept {
    // Relaxed throughout: each counter is an independent statistic; the
    // snapshot contract (see class comment) never derives a
    // happens-before edge from them.
    buckets_[static_cast<size_t>(std::bit_width(ns))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    uint64_t prev = max_ns_.load(std::memory_order_relaxed);
    // Weak CAS in a retry loop: retries only while racing writers raise
    // the max (CAS failure reloads `prev`). Relaxed success and failure
    // orders — the max publishes no other data.
    while (prev < ns && !max_ns_.compare_exchange_weak(
                            prev, ns, std::memory_order_relaxed,
                            std::memory_order_relaxed)) {
      CpuRelax();
    }
  }

  Snapshot TakeSnapshot() const {
    // Relaxed loads: monitoring read of independent counters; exactness
    // across counters comes from external happens-before edges only.
    Snapshot snapshot;
    snapshot.count = count_.load(std::memory_order_relaxed);
    snapshot.total_ms =
        static_cast<double>(total_ns_.load(std::memory_order_relaxed)) / 1e6;
    snapshot.max_ms =
        static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1e6;
    for (size_t b = 0; b < kBuckets; ++b) {
      snapshot.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return snapshot;
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

}  // namespace tasq

#endif  // TASQ_SERVE_LATENCY_HISTOGRAM_H_
