#include "serve/cache.h"

#include <bit>
#include <utility>

namespace tasq {

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

size_t HashReportCacheKey(const ReportCacheKey& key) {
  // operator== compares reference_tokens with double ==, under which
  // -0.0 == +0.0 — but their bit patterns differ. Hash the canonical zero,
  // or equal keys would land in different buckets (the unordered_map
  // hash/equality contract requires equal keys to hash equal).
  double tokens =
      // num: float-eq canonicalizes -0.0 to +0.0 before hashing
      key.reference_tokens == 0.0 ? 0.0 : key.reference_tokens;
  uint64_t h = Mix(key.fingerprint);
  h = Mix(h ^ (static_cast<uint64_t>(key.model) + 0x9E3779B97F4A7C15ULL));
  h = Mix(h ^ std::bit_cast<uint64_t>(tokens));
  h = Mix(h ^ key.grid_points);
  return static_cast<size_t>(h);
}

ReportCache::ReportCache(size_t capacity) : capacity_(capacity) {}

bool ReportCache::GetInto(const ReportCacheKey& key, WhatIfReport* out) {
  // Zero locks: pin the current table version (lock-free), look up, copy
  // out. A concurrent Put publishes a *new* table; the pinned version and
  // every entry it references stay valid until the pin is released.
  Snapshot<Table>::View table = table_.Read();
  auto it = table->find(key);
  if (it == table->end()) {
    // Relaxed: independent event counter (see header).
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Refresh recency. Relaxed store: the tick feeds the eviction
  // heuristic only; no other data is published through it.
  it->second->last_used.store(NextTick(), std::memory_order_relaxed);
  // Relaxed: independent event counter (see header).
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Copy-assign instead of returning a fresh report: when the caller's
  // buffer is warm (its curve vector's capacity covers this report),
  // libstdc++ reuses the storage and the hit allocates nothing.
  *out = it->second->report;
  return true;
}

void ReportCache::Put(const ReportCacheKey& key, WhatIfReport report) {
  if (capacity_ == 0) return;
  // Copy-update-swap, serialized across writers so no Put can overwrite
  // another's insert: copy the current table (per-entry shared_ptr copy,
  // not report bytes), mutate the copy, publish. Readers keep serving
  // the previous version lock-free until the publish lands.
  MutexLock lock(put_mutex_);
  auto next = std::make_shared<Table>(*table_.ReadOwned());

  if (auto it = next->find(key); it != next->end()) {
    // Refresh: entries are immutable after publication, so replace the
    // entry rather than mutating the report other readers may be copying.
    auto entry = std::make_shared<CacheEntry>();
    entry->report = std::move(report);
    entry->last_used.store(NextTick(), std::memory_order_relaxed);
    it->second = std::move(entry);
    table_.Publish(std::move(next));
    return;
  }

  if (next->size() >= capacity_) {
    // Evict the minimum-tick entry — exactly the back of the old
    // std::list LRU under sequential use, approximate under racing hits.
    auto victim = next->begin();
    uint64_t victim_tick =
        victim->second->last_used.load(std::memory_order_relaxed);
    for (auto it = std::next(next->begin()); it != next->end(); ++it) {
      uint64_t tick = it->second->last_used.load(std::memory_order_relaxed);
      if (tick < victim_tick) {
        victim = it;
        victim_tick = tick;
      }
    }
    next->erase(victim);
    // Relaxed: independent event counter (see header).
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  auto entry = std::make_shared<CacheEntry>();
  entry->report = std::move(report);
  entry->last_used.store(NextTick(), std::memory_order_relaxed);
  (*next)[key] = std::move(entry);
  // Relaxed: independent event counter (see header).
  insertions_.fetch_add(1, std::memory_order_relaxed);
  table_.Publish(std::move(next));
}

ReportCacheCounters ReportCache::counters() const {
  ReportCacheCounters counters;
  // Relaxed loads: each counter is independently exact; callers only
  // rely on cross-counter consistency at quiescence (see header).
  counters.hits = hits_.load(std::memory_order_relaxed);
  counters.misses = misses_.load(std::memory_order_relaxed);
  counters.evictions = evictions_.load(std::memory_order_relaxed);
  counters.insertions = insertions_.load(std::memory_order_relaxed);
  counters.size = table_.ReadOwned()->size();
  counters.capacity = capacity_;
  return counters;
}

}  // namespace tasq
