// Edge-case sweeps across modules: domain boundaries, capacity boundaries,
// thread-slot recycling with pending reclamation, degenerate configs.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "baselines/skiplist/skiplist.h"
#include "common/random.h"
#include "core/kiwi_map.h"
#include "obs/census.h"
#include "reclaim/ebr.h"

namespace kiwi {
namespace {

using core::KiWiConfig;
using core::KiWiMap;

TEST(EdgeCases, MinimumChunkCapacity) {
  // capacity 2 forces a rebalance on almost every put.
  KiWiConfig config;
  config.chunk_capacity = 2;
  KiWiMap map(config);
  for (Key k = 0; k < 300; ++k) map.Put(k, k);
  EXPECT_EQ(map.Size(), 300u);
  for (Key k = 0; k < 300; ++k) ASSERT_EQ(map.Get(k).value_or(-1), k);
  map.CheckInvariants();
#if KIWI_OBS_ENABLED
  // Counters read zero in a KIWI_STATS=OFF build.
  EXPECT_GT(map.DebugReport().counters.rebalances, 100u);
#endif
}

TEST(EdgeCases, SameKeyOverwrittenThousandsOfTimes) {
  KiWiConfig config;
  config.chunk_capacity = 8;
  KiWiMap map(config);
  for (Value v = 0; v < 5000; ++v) map.Put(1, v);
  EXPECT_EQ(map.Get(1).value_or(-1), 4999);
  EXPECT_EQ(map.Size(), 1u);
  // The structure must not bloat: compaction collapses the overwrites.
  map.CompactAll();
  EXPECT_LE(map.Census().chunks, 2u);  // 1-2 data chunks
}

TEST(EdgeCases, AlternatingInsertDeleteSameKey) {
  KiWiConfig config;
  config.chunk_capacity = 8;
  KiWiMap map(config);
  for (int i = 0; i < 3000; ++i) {
    map.Put(7, i);
    EXPECT_EQ(map.Get(7).value_or(-1), i);
    map.Remove(7);
    EXPECT_FALSE(map.Get(7).has_value());
  }
  EXPECT_EQ(map.Size(), 0u);
  map.CheckInvariants();
}

TEST(EdgeCases, ScanEntireDomain) {
  KiWiMap map;
  map.Put(kMinUserKey, 1);
  map.Put(0, 2);
  map.Put(kMaxUserKey, 3);
  std::vector<KiWiMap::Entry> out;
  // Bounds at the exact domain edges (to == INT64_MAX must not overflow).
  EXPECT_EQ(map.Scan(kMinUserKey, kMaxUserKey, out), 3u);
  EXPECT_EQ(map.Scan(kMaxUserKey, kMaxUserKey, out), 1u);
  EXPECT_EQ(out.front().second, 3);
  EXPECT_EQ(map.Scan(kMinUserKey, kMinUserKey, out), 1u);
  EXPECT_EQ(out.front().second, 1);
}

TEST(EdgeCases, ReverseSequentialInsertion) {
  // Descending key streams stress chunk-split boundaries from the left.
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  for (Key k = 5000; k-- > 0;) map.Put(k, k);
  EXPECT_EQ(map.Size(), 5000u);
  std::vector<KiWiMap::Entry> out;
  map.Scan(0, 4999, out);
  ASSERT_EQ(out.size(), 5000u);
  for (Key k = 0; k < 5000; ++k) ASSERT_EQ(out[k].first, k);
  map.CheckInvariants();
}

TEST(EdgeCases, ManyEmptyRangeScans) {
  KiWiConfig config;
  config.chunk_capacity = 16;
  KiWiMap map(config);
  for (Key k = 0; k < 1000; k += 100) map.Put(k, k);
  std::vector<KiWiMap::Entry> out;
  Xoshiro256 rng(6);
  for (int i = 0; i < 2000; ++i) {
    const Key from = static_cast<Key>(rng.NextBounded(1000));
    if (from % 100 == 0) continue;
    const Key to = from + static_cast<Key>(rng.NextBounded(99 - from % 100));
    if (to / 100 != from / 100) continue;  // stays between data points
    ASSERT_EQ(map.Scan(from, to, out), 0u);
  }
}

TEST(EdgeCases, EbrBuffersSurviveThreadExitAndSlotReuse) {
  // A thread retires objects and exits; its slot (and retire buffer) are
  // inherited by the next thread, and everything still drains.
  std::atomic<int> alive{0};
  struct Tracked {
    explicit Tracked(std::atomic<int>& c) : counter(c) { counter.fetch_add(1); }
    ~Tracked() { counter.fetch_sub(1); }
    std::atomic<int>& counter;
  };
  reclaim::Ebr ebr;
  for (int round = 0; round < 10; ++round) {
    std::thread([&] {
      reclaim::EbrGuard guard(ebr);
      for (int i = 0; i < 40; ++i) ebr.RetireObject(new Tracked(alive));
    }).join();
  }
  EXPECT_GT(alive.load(), 0);  // some pending
  ebr.CollectAllQuiescent();
  EXPECT_EQ(alive.load(), 0);
}

TEST(EdgeCases, SkipListHeightDistributionSane) {
  // Statistical check on tower heights via the footprint proxy: inserting n
  // keys costs ~n nodes; the structure must stay O(n) sized.
  baselines::SkipList list;
  const std::size_t before = list.MemoryFootprint();
  constexpr std::size_t kCount = 20000;
  for (Key k = 0; k < static_cast<Key>(kCount); ++k) list.Put(k, k);
  const std::size_t per_node =
      (list.MemoryFootprint() - before) / kCount;
  EXPECT_GT(per_node, sizeof(void*));          // holds towers
  EXPECT_LT(per_node, 64 * sizeof(void*));     // but not degenerate ones
}

TEST(EdgeCases, ConcurrentMapsDoNotInterfere) {
  // Two maps share the thread registry and nothing else.
  KiWiMap a(KiWiConfig{.chunk_capacity = 16});
  KiWiMap b(KiWiConfig{.chunk_capacity = 64});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (Key k = 0; k < 3000; ++k) {
        a.Put(k, k + t);
        b.Put(k, -k - t);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(a.Size(), 3000u);
  EXPECT_EQ(b.Size(), 3000u);
  for (Key k = 0; k < 3000; k += 97) {
    EXPECT_GE(a.Get(k).value_or(-1), k);
    EXPECT_LE(b.Get(k).value_or(1), -k);
  }
  a.CheckInvariants();
  b.CheckInvariants();
}

TEST(EdgeCases, StatsAreMonotoneAcrossOperations) {
  KiWiMap map(KiWiConfig{.chunk_capacity = 16});
  obs::OpCounters previous = map.DebugReport().counters;
  for (int phase = 0; phase < 5; ++phase) {
    for (Key k = 0; k < 500; ++k) map.Put(k + phase * 500, k);
    const obs::OpCounters current = map.DebugReport().counters;
    EXPECT_GE(current.rebalances, previous.rebalances);
    EXPECT_GE(current.chunks_created, previous.chunks_created);
    EXPECT_GE(current.put_restarts, previous.put_restarts);
    previous = current;
  }
}

}  // namespace
}  // namespace kiwi
