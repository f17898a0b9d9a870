#include "common/arena.h"

#include <cstdint>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"

namespace tasq {
namespace {

TEST(ArenaTest, AllocReturnsAlignedDistinctPointers) {
  Arena arena;
  void* a = arena.Alloc(24);
  void* b = arena.Alloc(8, 64);
  void* c = arena.Alloc(1, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) %
                alignof(std::max_align_t), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(arena.bytes_used(), 24u + 8u + 1u);
}

TEST(ArenaTest, NewConstructsWithArguments) {
  struct Point {
    double x, y;
  };
  Arena arena;
  Point* p = arena.New<Point>(Point{3.0, 4.0});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->x, 3.0);
  EXPECT_EQ(p->y, 4.0);
}

TEST(ArenaTest, NewArrayOfArithmeticIsZeroed) {
  Arena arena;
  double* xs = arena.NewArray<double>(256);
  for (size_t i = 0; i < 256; ++i) {
    ASSERT_EQ(xs[i], 0.0) << i;
  }
}

TEST(ArenaTest, GrowsAcrossBlockBoundary) {
  Arena arena(/*block_bytes=*/128);
  for (int i = 0; i < 100; ++i) {
    int* p = arena.New<int>(i);
    ASSERT_EQ(*p, i);
  }
  EXPECT_GT(arena.block_count(), 1u);
}

TEST(ArenaTest, OversizedRequestGetsDedicatedBlock) {
  Arena arena(/*block_bytes=*/64);
  char* big = static_cast<char*>(arena.Alloc(4096));
  ASSERT_NE(big, nullptr);
  big[0] = 'x';
  big[4095] = 'y';
  EXPECT_EQ(big[0], 'x');
  EXPECT_EQ(big[4095], 'y');
}

TEST(ArenaTest, ResetReusesBlocksWithoutGrowth) {
  Arena arena(/*block_bytes=*/1024);
  // Warm up: force a couple of blocks into existence.
  for (int round = 0; round < 3; ++round) {
    arena.Reset();
    for (int i = 0; i < 400; ++i) {
      arena.New<int64_t>(i);
    }
  }
  size_t warm_blocks = arena.block_count();
  EXPECT_GE(warm_blocks, 2u);
  // Steady state: identical traffic must not acquire new blocks.
  for (int round = 0; round < 16; ++round) {
    arena.Reset();
    for (int i = 0; i < 400; ++i) {
      arena.New<int64_t>(i);
    }
    ASSERT_EQ(arena.block_count(), warm_blocks) << "round " << round;
  }
}

TEST(ArenaTest, ResetRewindsBytesUsed) {
  Arena arena;
  arena.Alloc(100);
  EXPECT_EQ(arena.bytes_used(), 100u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  arena.Alloc(10);
  EXPECT_EQ(arena.bytes_used(), 10u);
}

TEST(ArenaTest, NewObjectRunsRegisteredDtorsNewestFirstOnReset) {
  struct Tracker {
    std::vector<int>* log;  // own: borrowed test-local log outlives arena
    int id;
    ~Tracker() { log->push_back(id); }
  };
  std::vector<int> log;
  Arena arena;
  arena.NewObject<Tracker>(Tracker{&log, 1});
  arena.NewObject<Tracker>(Tracker{&log, 2});
  arena.NewObject<Tracker>(Tracker{&log, 3});
  // The moved-from temporaries above also log on scope exit; clear so
  // only the arena-registered destructions are observed.
  log.clear();
  arena.Reset();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 3);
  EXPECT_EQ(log[1], 2);
  EXPECT_EQ(log[2], 1);
  // Reset cleared the registrations: a second Reset must not re-run.
  log.clear();
  arena.Reset();
  EXPECT_TRUE(log.empty());
}

TEST(ArenaTest, NewObjectDtorsRunAtDestruction) {
  std::vector<int> log;
  struct Tracker {
    std::vector<int>* log;  // own: borrowed test-local log outlives arena
    int id;
    ~Tracker() { log->push_back(id); }
  };
  {
    Arena arena;
    arena.NewObject<Tracker>(Tracker{&log, 7});
    log.clear();
  }
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 7);
}

TEST(ArenaVectorTest, ReserveFillReadBack) {
  Arena arena;
  ArenaVector<double> v{ArenaAllocator<double>(&arena)};
  v.reserve(512);
  for (int i = 0; i < 512; ++i) {
    v.push_back(i * 0.5);
  }
  double sum = std::accumulate(v.begin(), v.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * (511.0 * 512.0 / 2.0));
}

TEST(ArenaVectorTest, SteadyStateLoopKeepsBlockCountFlat) {
  Arena arena(/*block_bytes=*/4096);
  size_t warm_blocks = 0;
  for (int round = 0; round < 20; ++round) {
    arena.Reset();
    ArenaVector<int> v{ArenaAllocator<int>(&arena)};
    v.reserve(256);
    for (int i = 0; i < 256; ++i) {
      v.push_back(i);
    }
    if (round == 4) {
      warm_blocks = arena.block_count();
    }
    if (round > 4) {
      ASSERT_EQ(arena.block_count(), warm_blocks) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace tasq
