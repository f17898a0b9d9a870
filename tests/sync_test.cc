// Stress and semantics tests for the lock-free primitive in
// src/common/sync/: Snapshot<T> publication.
//
// Every suite name starts with `Sync` on purpose: the TSan leg of
// scripts/check.sh (and the ci.yml tsan job — the two regexes drift
// unless both are updated) selects these suites by that prefix, so the
// publish/pin protocol is exercised under the race detector on every CI
// run, not just when the whole suite happens to run instrumented.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync/snapshot.h"
#include "gtest/gtest.h"

namespace tasq {
namespace {

// A value whose invariant a torn read would break: `a` and `b` must
// always agree (b == a * 3 + 7). Publishers only ever publish consistent
// pairs, so any reader observing a mismatch has seen a torn snapshot.
struct Pair {
  uint64_t a = 0;
  uint64_t b = 7;

  bool Consistent() const { return b == a * 3 + 7; }
};

TEST(SyncSnapshotTest, ReadSeesInitialValue) {
  Snapshot<Pair> snapshot;
  auto view = snapshot.Read();
  EXPECT_EQ(view->a, 0u);
  EXPECT_TRUE(view->Consistent());
}

TEST(SyncSnapshotTest, PublishReplacesValueForLaterReaders) {
  Snapshot<int> snapshot(std::make_shared<const int>(1));
  snapshot.Publish(std::make_shared<const int>(2));
  EXPECT_EQ(*snapshot.Read(), 2);
}

TEST(SyncSnapshotTest, ReadOwnedOutlivesSubsequentPublishes) {
  Snapshot<int> snapshot(std::make_shared<const int>(10));
  std::shared_ptr<const int> owned = snapshot.ReadOwned();
  for (int i = 0; i < 8; ++i) {
    snapshot.Publish(std::make_shared<const int>(100 + i));
  }
  EXPECT_EQ(*owned, 10);        // The pinned-then-copied version survives.
  EXPECT_EQ(*snapshot.Read(), 107);
}

TEST(SyncSnapshotTest, PublishReclaimsTheReplacedVersion) {
  auto first = std::make_shared<const int>(1);
  std::weak_ptr<const int> first_alive = first;
  Snapshot<int> snapshot(std::move(first));
  ASSERT_FALSE(first_alive.expired());

  snapshot.Publish(std::make_shared<const int>(2));
  // No reader pinned version 1 and no ReadOwned copy exists, so Publish
  // must have dropped the last reference before returning.
  EXPECT_TRUE(first_alive.expired());

  // With a ReadOwned copy outstanding, the version survives the publish
  // and dies exactly when the copy does.
  std::shared_ptr<const int> held = snapshot.ReadOwned();
  std::weak_ptr<const int> second_alive = held;
  snapshot.Publish(std::make_shared<const int>(3));
  EXPECT_FALSE(second_alive.expired());
  held.reset();
  EXPECT_TRUE(second_alive.expired());
}

// The core TSan target: many readers hammering Read() while one writer
// publishes new versions. A torn snapshot (reader observing a half-
// updated Pair), a use-after-reclaim (reader dereferencing a version the
// writer dropped), or a missed pin (writer reclaiming under a reader)
// all either fail the consistency EXPECT or trip the race detector.
TEST(SyncSnapshotTest, ConcurrentPublishAndManyReadersStayConsistent) {
  Snapshot<Pair> snapshot;
  constexpr int kReaders = 4;
  constexpr int kPublishes = 400;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&snapshot, &stop, &reads] {
      // Relaxed: the stop flag only ends the loop; thread join publishes
      // everything the readers did.
      while (!stop.load(std::memory_order_relaxed)) {
        auto view = snapshot.Read();
        ASSERT_TRUE(view->Consistent())
            << "torn snapshot: a=" << view->a << " b=" << view->b;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Without this gate the publishes can all finish before the reader
  // threads are even scheduled, making the reads>0 assertion below flaky.
  while (reads.load(std::memory_order_relaxed) <
         static_cast<uint64_t>(kReaders)) {
    std::this_thread::yield();
  }

  for (uint64_t i = 1; i <= kPublishes; ++i) {
    auto next = std::make_shared<Pair>();
    next->a = i;
    next->b = i * 3 + 7;
    snapshot.Publish(std::shared_ptr<const Pair>(std::move(next)));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(snapshot.Read()->a, static_cast<uint64_t>(kPublishes));
}

}  // namespace
}  // namespace tasq
