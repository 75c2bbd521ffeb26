#include "sim/frame_pool.hpp"

#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

namespace hcs::sim::detail {
namespace {

TEST(FramePool, RoundTripReusesBlocks) {
  void* a = FramePool::allocate(128);
  std::memset(a, 0xAB, 128);
  FramePool::deallocate(a);
  // LIFO freelist: the very next same-bucket allocation gets the same block.
  void* b = FramePool::allocate(128);
  EXPECT_EQ(a, b);
  FramePool::deallocate(b);
}

TEST(FramePool, PreservesMaxAlign) {
  for (const std::size_t bytes : {1u, 7u, 64u, 120u, 500u, 2000u, 5000u}) {
    void* p = FramePool::allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(std::max_align_t),
              0u)
        << "bytes=" << bytes;
    std::memset(p, 0x5C, bytes);
    FramePool::deallocate(p);
  }
}

TEST(FramePool, OversizedBlocksBypassTheArena) {
  const std::size_t before = FramePool::reserved_bytes();
  void* p = FramePool::allocate(1 << 20);  // 1 MiB: far beyond the buckets
  std::memset(p, 0x11, 1 << 20);
  FramePool::deallocate(p);
  EXPECT_EQ(FramePool::reserved_bytes(), before);
}

TEST(FramePool, SlabRefillServesBatchesOfDistinctBlocks) {
  constexpr int kCount = 200;
  std::set<void*> seen;
  std::vector<void*> blocks;
  blocks.reserve(kCount);
  for (int i = 0; i < kCount; ++i) {
    void* p = FramePool::allocate(256);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate live block";
    std::memset(p, i & 0xFF, 256);
    blocks.push_back(p);
  }
  EXPECT_GT(FramePool::reserved_bytes(), 0u);
  for (void* p : blocks) FramePool::deallocate(p);
}

// Steady-state churn must not grow the arena: after the first refill, the
// thread cache serves every allocation.
TEST(FramePool, ChurnDoesNotGrowReservation) {
  for (int i = 0; i < 64; ++i) FramePool::deallocate(FramePool::allocate(192));
  const std::size_t after_warmup = FramePool::reserved_bytes();
  for (int i = 0; i < 100000; ++i) {
    void* p = FramePool::allocate(192);
    FramePool::deallocate(p);
  }
  EXPECT_EQ(FramePool::reserved_bytes(), after_warmup);
}

// Worker-thread lifecycle (TrialRunner, PDES shard workers): each thread
// churns its own frames; exiting threads return chains to the arena, so a
// second generation of threads reuses them instead of carving new slabs.
TEST(FramePool, ThreadsRecycleThroughTheArena) {
  // No first-generation thread may exit (and hand its chains back) before
  // every one of them has finished churning: otherwise a late starter reuses
  // an early finisher's blocks, the first generation reserves less than four
  // concurrent threads need, and the baseline depends on thread scheduling.
  constexpr int kThreads = 4;
  std::barrier gen1_done(kThreads);
  auto churn = [] {
    std::vector<void*> live;
    live.reserve(256);
    for (int i = 0; i < 5000; ++i) {
      live.push_back(FramePool::allocate(96 + (i % 8) * 64));
      if (live.size() == 256) {
        for (void* p : live) FramePool::deallocate(p);
        live.clear();
      }
    }
    for (void* p : live) FramePool::deallocate(p);
  };
  std::vector<std::thread> gen1;
  for (int i = 0; i < kThreads; ++i) {
    gen1.emplace_back([&] {
      churn();
      gen1_done.arrive_and_wait();
    });
  }
  for (auto& t : gen1) t.join();
  const std::size_t after_gen1 = FramePool::reserved_bytes();
  std::vector<std::thread> gen2;
  for (int i = 0; i < kThreads; ++i) gen2.emplace_back(churn);
  for (auto& t : gen2) t.join();
  EXPECT_EQ(FramePool::reserved_bytes(), after_gen1);
}

}  // namespace
}  // namespace hcs::sim::detail
