#ifndef TASQ_SERVE_CACHE_H_
#define TASQ_SERVE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hot.h"
#include "common/mutex.h"
#include "common/sync/snapshot.h"
#include "tasq/what_if.h"

namespace tasq {

/// Identity of one scoring request for cache purposes: the job graph's
/// content fingerprint (JobGraph::Fingerprint) plus every scoring knob
/// that changes the report. Two requests with equal keys produce
/// byte-identical WhatIfReports, because scoring a trained pipeline is a
/// pure function of (graph, model, reference tokens, grid resolution).
struct ReportCacheKey {
  uint64_t fingerprint = 0;
  ModelKind model = ModelKind::kNn;
  double reference_tokens = 0.0;
  uint64_t grid_points = 0;

  bool operator==(const ReportCacheKey& other) const {
    return fingerprint == other.fingerprint && model == other.model &&
           reference_tokens == other.reference_tokens &&
           grid_points == other.grid_points;
  }
};

/// Splitmix-style mix of the four key fields. ReportCache picks a key's
/// shard from the high bits and its first probe slot from the low bits.
TASQ_HOT size_t HashReportCacheKey(const ReportCacheKey& key);

/// Counter snapshot of a cache instance since construction.
struct ReportCacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  size_t size = 0;
  size_t capacity = 0;
};

/// A thread-safe LRU cache of WhatIfReports keyed by request identity.
/// The paper's dominant workload is recurring jobs (same template, same
/// compile-time graph), so the serving layer answers repeats from here
/// and skips model inference entirely. Capacity 0 disables caching (every
/// GetInto is a miss, Put is a no-op) — handy for A/B benchmarks.
///
/// Sharding: the entries are split into max(1, capacity / 64) shards,
/// chosen by the high bits of HashReportCacheKey. Shard capacities differ
/// by at most one and sum to `capacity`, so no shard holds more than 127
/// entries and caches under 128 entries are a single shard. LRU is exact
/// within a shard: a Put into a full shard evicts that shard's least
/// recently used entry, which under a well-mixed hash is close to the
/// global one.
///
/// Concurrency: each shard is an immutable open-addressed table behind
/// its own Snapshot<Table>, so the read path — GetInto, the serving fast
/// path — takes **zero locks**: one lock-free snapshot pin, a probe of
/// one or two slots, and relaxed-atomic counter bumps. A Put does
/// copy-update-swap of its own shard only, under that shard's writer
/// mutex: it rebuilds the shard's table (a new table and slot array,
/// plus a reference-count bump per surviving entry) and publishes it, so
/// writers to different shards never wait on each other. Recency is a
/// shared monotonic tick written into each entry's relaxed atomic
/// `last_used` on every hit, and eviction scans the shard for the minimum
/// tick. Under sequential use the tick order is exactly the classic
/// list-LRU order within a shard (the unit tests pin this); under
/// concurrency it is LRU up to racing hits, which only shifts *which*
/// entry evicts, never breaks the size bound.
class ReportCache {
 public:
  explicit ReportCache(size_t capacity);

  /// Copies the cached report into `*out` (refreshing recency) and
  /// returns true, or returns false on a miss leaving `*out` untouched.
  /// Counts the hit/miss either way. Lock-free (one Snapshot<Table> pin;
  /// no mutex anywhere on this path) and steady-state allocation-free:
  /// the copy-assign into a warm `*out` reuses the curve vector's
  /// existing capacity, so a caller that recycles its report buffer pays
  /// zero heap allocations per hit (pinned by tests/hot_path_test.cc).
  TASQ_HOT bool GetInto(const ReportCacheKey& key, WhatIfReport* out);

  /// Inserts (or refreshes) `report`, evicting the least recently used
  /// entry of the key's shard when that shard is full. Cold path: rebuilds
  /// the shard's table (shared_ptr per entry, not report bytes) and
  /// publishes the new version.
  void Put(const ReportCacheKey& key, WhatIfReport report);

  /// Point-in-time counters. Each counter is individually exact; a
  /// cross-counter snapshot is only guaranteed consistent when no
  /// concurrent operations are in flight (true everywhere it is read:
  /// tests and post-drain stats).
  ReportCacheCounters counters() const;

 private:
  /// One cached report. The report is immutable after publication; the
  /// recency tick is the only mutable field and is updated by readers
  /// through a relaxed store (no ordering needed — it feeds an eviction
  /// heuristic, not a happens-before edge).
  struct CacheEntry {
    WhatIfReport report;
    mutable std::atomic<uint64_t> last_used{0};
  };

  /// One slot of a shard table. Empty when `entry` is null. Entries are
  /// shared between successive table versions, so a hit's recency bump
  /// is visible to the writer regardless of which version the reader
  /// pinned.
  struct Slot {
    size_t hash = 0;
    ReportCacheKey key;
    std::shared_ptr<const CacheEntry> entry;
  };

  /// One published version of a shard: linear probing over a power-of-
  /// two slot count at least twice the shard's capacity, so a probe ends
  /// within a slot or two. Put builds every version anew, so it never
  /// holds a tombstone. No slots until the shard's first Put.
  struct Table {
    std::vector<Slot> slots;
    size_t size = 0;
  };

  struct Shard {
    size_t capacity = 0;  // Set by the constructor, immutable after.
    /// Guarded by put_mutex: the read-copy-update sequence in Put (read
    /// the current table, rebuild, publish). Readers never take it —
    /// they go through table's lock-free pin protocol.
    Mutex put_mutex;
    Snapshot<Table> table;
  };

  /// The slot holding `key` in `table`, or nullptr.
  static const Slot* FindSlot(const Table& table, size_t hash,
                              const ReportCacheKey& key);
  /// Stores an entry in the first free slot of its probe sequence; the
  /// key must be absent and `table` must have a free slot.
  static void InsertSlot(Table& table, size_t hash, const ReportCacheKey& key,
                         std::shared_ptr<const CacheEntry> entry);

  Shard& ShardFor(size_t hash) {
    // Multiply-shift over the hash's high 32 bits: uniform over any shard
    // count, and independent of the low bits that pick the probe slot.
    return shards_[((hash >> 32) * shard_count_) >> 32];
  }

  uint64_t NextTick() const {
    // Relaxed: the tick is a monotonic recency stamp; ordering between
    // the bump and the entry store it feeds is irrelevant to safety.
    return tick_.fetch_add(1, std::memory_order_relaxed);
  }

  const size_t capacity_;     // Immutable after construction.
  const size_t shard_count_;  // max(1, capacity_ / 64).
  std::unique_ptr<Shard[]> shards_;
  /// Monotonic recency clock; advanced (relaxed) by hits and inserts.
  mutable std::atomic<uint64_t> tick_{0};
  // Statistic counters: relaxed throughout — each is an independent
  // monotonic event count, never used to order or publish other data.
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
};

}  // namespace tasq

#endif  // TASQ_SERVE_CACHE_H_
