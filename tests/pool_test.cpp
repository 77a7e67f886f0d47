// SlabPool unit tests: size-class round trips, thread-cache bound + global
// spill, EBR-deferred recycling order (a retired chunk's slab must not be
// reissued before the grace period), and a multithreaded churn stress.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_registry.h"
#include "core/chunk.h"
#include "reclaim/ebr.h"
#include "reclaim/pool.h"

namespace kiwi::reclaim {
namespace {

TEST(SlabPool, RoundedSizeIsCacheLineMultiple) {
  EXPECT_EQ(SlabPool::RoundedSize(1), SlabPool::kAlignment);
  EXPECT_EQ(SlabPool::RoundedSize(SlabPool::kAlignment),
            SlabPool::kAlignment);
  EXPECT_EQ(SlabPool::RoundedSize(SlabPool::kAlignment + 1),
            2 * SlabPool::kAlignment);
  EXPECT_EQ(SlabPool::RoundedSize(1000) % SlabPool::kAlignment, 0u);
  EXPECT_GE(SlabPool::RoundedSize(1000), 1000u);
}

TEST(SlabPool, SizeClassRoundTrip) {
  SlabPool pool;
  void* block = pool.Allocate(1000);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) % SlabPool::kAlignment,
            0u);
  std::memset(block, 0xAB, 1000);  // must be writable
  SlabPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.live_bytes, SlabPool::RoundedSize(1000));

  pool.Deallocate(block, 1000);
  stats = pool.GetStats();
  EXPECT_EQ(stats.recycled, 1u);
  EXPECT_EQ(stats.live_bytes, 0u);
  EXPECT_EQ(stats.pooled_bytes, SlabPool::RoundedSize(1000));

  // Same size again: recycled from the thread cache (LIFO → same address).
  void* again = pool.Allocate(1000);
  EXPECT_EQ(again, block);
  stats = pool.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.pooled_bytes, 0u);
  pool.Deallocate(again, 1000);
}

TEST(SlabPool, DistinctSizesLandInDistinctClasses) {
  SlabPool pool;
  void* small = pool.Allocate(64);
  void* large = pool.Allocate(4096);
  pool.Deallocate(small, 64);
  pool.Deallocate(large, 4096);
  // A request for the small size must not be served from the large slab.
  void* small_again = pool.Allocate(64);
  EXPECT_EQ(small_again, small);
  void* large_again = pool.Allocate(4096);
  EXPECT_EQ(large_again, large);
  pool.Deallocate(small_again, 64);
  pool.Deallocate(large_again, 4096);
}

TEST(SlabPool, ThreadCacheBoundSpillsToGlobalList) {
  constexpr std::uint32_t kBound = SlabPool::kThreadCacheSlabs;
  SlabPool pool;
  constexpr std::size_t kSlabs = kBound + 4;
  constexpr std::size_t kBytes = 512;
  void* blocks[kSlabs];
  for (void*& b : blocks) b = pool.Allocate(kBytes);
  for (void* b : blocks) pool.Deallocate(b, kBytes);

  SlabPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.recycled, kSlabs);
  // Cache holds kBound; the rest overflowed to the global spill list.
  EXPECT_EQ(stats.spills, kSlabs - kBound);
  EXPECT_EQ(stats.pooled_bytes, kSlabs * SlabPool::RoundedSize(kBytes));

  // Reallocation drains the cache first, then refills from the spill —
  // every one of the original slabs comes back, none from the OS.
  std::set<void*> recycled;
  for (std::size_t i = 0; i < kSlabs; ++i) {
    recycled.insert(pool.Allocate(kBytes));
  }
  stats = pool.GetStats();
  EXPECT_EQ(stats.hits, kSlabs);
  EXPECT_EQ(stats.misses, kSlabs);  // only the initial cold allocations
  EXPECT_EQ(stats.pooled_bytes, 0u);
  EXPECT_EQ(recycled, std::set<void*>(blocks, blocks + kSlabs));
  for (void* b : recycled) pool.Deallocate(b, kBytes);
}

TEST(SlabPool, SizesBeyondClassTableGoUnpooled) {
  SlabPool pool;
  // Register kMaxSizeClasses distinct sizes...
  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t i = 0; i < SlabPool::kMaxSizeClasses; ++i) {
    const std::size_t bytes = (i + 1) * SlabPool::kAlignment;
    blocks.emplace_back(pool.Allocate(bytes), bytes);
  }
  EXPECT_EQ(pool.GetStats().unpooled, 0u);
  // ...then one more: it overflows the table but must still work.
  const std::size_t extra =
      (SlabPool::kMaxSizeClasses + 1) * SlabPool::kAlignment;
  void* overflow = pool.Allocate(extra);
  ASSERT_NE(overflow, nullptr);
  std::memset(overflow, 0x5A, extra);
  pool.Deallocate(overflow, extra);
  EXPECT_EQ(pool.GetStats().unpooled, 2u);  // one alloc + one free
  for (auto [b, bytes] : blocks) pool.Deallocate(b, bytes);
  EXPECT_EQ(pool.GetStats().live_bytes, 0u);
}

TEST(SlabPool, TrimReleasesPooledStock) {
  SlabPool pool;
  constexpr std::size_t kSlabs = SlabPool::kThreadCacheSlabs + 3;
  void* blocks[kSlabs];
  for (void*& b : blocks) b = pool.Allocate(256);
  for (void* b : blocks) pool.Deallocate(b, 256);
  ASSERT_GT(pool.GetStats().pooled_bytes, 0u);

  EXPECT_EQ(pool.Trim(), kSlabs);
  SlabPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.pooled_bytes, 0u);
  EXPECT_EQ(stats.trims, kSlabs);
  // The pool still works after a trim.
  void* fresh = pool.Allocate(256);
  pool.Deallocate(fresh, 256);
}

// The contract the whole design rests on: a chunk retired through EBR only
// reaches the pool once the grace period has elapsed, so its slab cannot be
// reissued to a new chunk while a concurrent reader may still dereference
// the old one.
TEST(SlabPool, EbrDefersRecyclingUntilGracePeriod) {
  SlabPool pool;
  Ebr ebr;
  const std::uint32_t capacity = 64;
  const std::size_t slab_bytes = core::Chunk::SlabBytes(capacity);

  core::Chunk* chunk = core::Chunk::Create(pool, kMinUserKey, capacity,
                                           nullptr,
                                           core::Chunk::Status::kNormal);
  // A reader pins the current epoch on another thread and holds it.
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EbrGuard guard(ebr);
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();

  {
    EbrGuard guard(ebr);
    ebr.Retire(chunk, [](void* p) {
      core::Chunk::Destroy(static_cast<core::Chunk*>(p));
    });
  }
  // The reader still holds its guard: collection must not free the chunk,
  // so an allocation of the same slab size cannot observe the old address.
  ebr.Collect();
  EXPECT_GT(ebr.PendingCount(), 0u);
  void* during = pool.Allocate(slab_bytes);
  EXPECT_NE(during, static_cast<void*>(chunk))
      << "slab reissued while a guard could still observe the old chunk";
  pool.Deallocate(during, slab_bytes);

  // Release the reader; after a quiescent collect the slab is pool stock.
  release.store(true, std::memory_order_release);
  reader.join();
  ebr.CollectAllQuiescent();
  EXPECT_EQ(ebr.PendingCount(), 0u);
  SlabPool::Stats stats = pool.GetStats();
  EXPECT_GT(stats.recycled, 0u);
  EXPECT_GT(stats.pooled_bytes, 0u);
}

TEST(SlabPoolStress, MultithreadedChurn) {
  // Hold up to twice the cache bound so deallocations spill.
  constexpr std::size_t kHeld = 2 * SlabPool::kThreadCacheSlabs;
  SlabPool pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  static constexpr std::size_t kSizes[] = {192, 1024, 3072};

  std::atomic<std::uint64_t> total_allocs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &total_allocs, t] {
      std::vector<std::pair<void*, std::size_t>> held;
      std::uint64_t rng = 0x9E3779B97F4A7C15ull * (t + 1);
      for (int i = 0; i < kIters; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t bytes = kSizes[(rng >> 33) % 3];
        void* block = pool.Allocate(bytes);
        // Touch the whole payload: ASAN flags any poisoned (still-pooled)
        // byte, and cross-thread reuse of a dirty slab must be benign.
        std::memset(block, static_cast<int>(rng), bytes);
        held.emplace_back(block, bytes);
        total_allocs.fetch_add(1, std::memory_order_relaxed);
        if (held.size() > kHeld || (rng & 1)) {
          const std::size_t victim = (rng >> 17) % held.size();
          pool.Deallocate(held[victim].first, held[victim].second);
          held[victim] = held.back();
          held.pop_back();
        }
      }
      for (auto [block, bytes] : held) pool.Deallocate(block, bytes);
    });
  }
  for (std::thread& t : threads) t.join();

  const SlabPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, total_allocs.load());
  EXPECT_EQ(stats.live_bytes, 0u);  // everything returned
  EXPECT_GT(stats.hits, 0u);        // churn must actually recycle
  // Quiescent now: trimming releases exactly the pooled stock.
  const std::uint64_t pooled_before = stats.pooled_bytes;
  pool.Trim();
  EXPECT_EQ(pool.GetStats().pooled_bytes, 0u);
  EXPECT_GT(pooled_before, 0u);
}

}  // namespace
}  // namespace kiwi::reclaim
