#include "serve/cache.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace tasq {

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Entries per shard the shard count aims at; see the class comment.
constexpr size_t kShardTarget = 64;

}  // namespace

size_t HashReportCacheKey(const ReportCacheKey& key) {
  // operator== compares reference_tokens with double ==, under which
  // -0.0 == +0.0 — but their bit patterns differ. Hash the canonical zero,
  // or equal keys would probe different slots (the hash/equality contract
  // requires equal keys to hash equal).
  double tokens =
      // num: float-eq canonicalizes -0.0 to +0.0 before hashing
      key.reference_tokens == 0.0 ? 0.0 : key.reference_tokens;
  uint64_t h = Mix(key.fingerprint);
  h = Mix(h ^ (static_cast<uint64_t>(key.model) + 0x9E3779B97F4A7C15ULL));
  h = Mix(h ^ std::bit_cast<uint64_t>(tokens));
  h = Mix(h ^ key.grid_points);
  return static_cast<size_t>(h);
}

ReportCache::ReportCache(size_t capacity)
    : capacity_(capacity),
      shard_count_(std::max<size_t>(1, capacity / kShardTarget)),
      shards_(std::make_unique<Shard[]>(shard_count_)) {
  for (size_t i = 0; i < shard_count_; ++i) {
    shards_[i].capacity =
        capacity / shard_count_ + (i < capacity % shard_count_ ? 1 : 0);
  }
}

const ReportCache::Slot* ReportCache::FindSlot(const Table& table,
                                               size_t hash,
                                               const ReportCacheKey& key) {
  if (table.slots.empty()) return nullptr;
  // At most half the slots are full, so the probe reaches an empty slot.
  size_t mask = table.slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = table.slots[i];
    if (slot.entry == nullptr) return nullptr;
    if (slot.hash == hash && slot.key == key) return &slot;
  }
}

void ReportCache::InsertSlot(Table& table, size_t hash,
                             const ReportCacheKey& key,
                             std::shared_ptr<const CacheEntry> entry) {
  size_t mask = table.slots.size() - 1;
  size_t i = hash & mask;
  while (table.slots[i].entry != nullptr) i = (i + 1) & mask;
  table.slots[i].hash = hash;
  table.slots[i].key = key;
  table.slots[i].entry = std::move(entry);
  ++table.size;
}

bool ReportCache::GetInto(const ReportCacheKey& key, WhatIfReport* out) {
  // Zero locks: pin the shard's current table version (lock-free), probe,
  // copy out. A concurrent Put publishes a *new* table; the pinned version
  // and every entry it references stay valid until the pin is released.
  size_t hash = HashReportCacheKey(key);
  Snapshot<Table>::View table = ShardFor(hash).table.Read();
  const Slot* slot = FindSlot(*table, hash, key);
  if (slot == nullptr) {
    // Relaxed: independent event counter (see header).
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Refresh recency. Relaxed store: the tick feeds the eviction
  // heuristic only; no other data is published through it.
  slot->entry->last_used.store(NextTick(), std::memory_order_relaxed);
  // Relaxed: independent event counter (see header).
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Copy-assign instead of returning a fresh report: when the caller's
  // buffer is warm (its curve vector's capacity covers this report),
  // libstdc++ reuses the storage and the hit allocates nothing.
  *out = slot->entry->report;
  return true;
}

void ReportCache::Put(const ReportCacheKey& key, WhatIfReport report) {
  if (capacity_ == 0) return;
  size_t hash = HashReportCacheKey(key);
  Shard& shard = ShardFor(hash);
  // Entries are immutable after publication, so a refresh replaces the
  // entry rather than mutating the report other readers may be copying.
  auto entry = std::make_shared<CacheEntry>();
  entry->report = std::move(report);

  // Copy-update-swap of this shard, serialized across its writers so no
  // Put can overwrite another's insert: rebuild the current table into a
  // fresh one (per-entry shared_ptr copy, not report bytes) minus the
  // entry being replaced or evicted, add the new entry, publish. Readers
  // keep serving the previous version lock-free until the publish lands.
  MutexLock lock(shard.put_mutex);
  std::shared_ptr<const Table> current = shard.table.ReadOwned();
  const Slot* dropped = FindSlot(*current, hash, key);
  bool refresh = dropped != nullptr;
  if (!refresh && current->size >= shard.capacity) {
    // Evict the shard's minimum-tick entry — exactly the back of a
    // per-shard list LRU under sequential use, approximate under racing
    // hits.
    uint64_t victim_tick = 0;
    for (const Slot& slot : current->slots) {
      if (slot.entry == nullptr) continue;
      uint64_t tick = slot.entry->last_used.load(std::memory_order_relaxed);
      if (dropped == nullptr || tick < victim_tick) {
        dropped = &slot;
        victim_tick = tick;
      }
    }
    // Relaxed: independent event counter (see header).
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  auto next = std::make_shared<Table>();
  next->slots.resize(std::bit_ceil(2 * shard.capacity));
  for (const Slot& slot : current->slots) {
    if (slot.entry != nullptr && &slot != dropped) {
      InsertSlot(*next, slot.hash, slot.key, slot.entry);
    }
  }
  entry->last_used.store(NextTick(), std::memory_order_relaxed);
  InsertSlot(*next, hash, key, std::move(entry));
  if (!refresh) {
    // Relaxed: independent event counter (see header).
    insertions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.table.Publish(std::move(next));
}

ReportCacheCounters ReportCache::counters() const {
  ReportCacheCounters counters;
  // Relaxed loads: each counter is independently exact; callers only
  // rely on cross-counter consistency at quiescence (see header).
  counters.hits = hits_.load(std::memory_order_relaxed);
  counters.misses = misses_.load(std::memory_order_relaxed);
  counters.evictions = evictions_.load(std::memory_order_relaxed);
  counters.insertions = insertions_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < shard_count_; ++i) {
    counters.size += shards_[i].table.Read()->size;
  }
  counters.capacity = capacity_;
  return counters;
}

}  // namespace tasq
