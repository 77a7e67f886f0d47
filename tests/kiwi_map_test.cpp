// Sequential semantics of KiWiMap, parameterized over chunk capacities so
// every size exercises different rebalance pressure (tiny chunks rebalance
// constantly; the paper's 1024 rarely, in these test sizes).
#include <gtest/gtest.h>

#include <map>

#include "core/kiwi_map.h"
#include "obs/census.h"

namespace kiwi::core {
namespace {

TEST(KiWiBasics, EmptyMapBehaves) {
  KiWiMap map;
  EXPECT_FALSE(map.Get(1).has_value());
  EXPECT_EQ(map.Size(), 0u);
  std::vector<KiWiMap::Entry> out;
  EXPECT_EQ(map.Scan(kMinUserKey, kMaxUserKey, out), 0u);
  map.Remove(5);  // removing an absent key is a no-op
  EXPECT_EQ(map.Size(), 0u);
  map.CheckInvariants();
}

TEST(KiWiBasics, PutGetOverwrite) {
  KiWiMap map;
  map.Put(10, 100);
  EXPECT_EQ(map.Get(10).value(), 100);
  map.Put(10, 200);
  EXPECT_EQ(map.Get(10).value(), 200);
  EXPECT_EQ(map.Size(), 1u);
}

TEST(KiWiBasics, RemoveThenReinsert) {
  KiWiMap map;
  map.Put(10, 100);
  map.Remove(10);
  EXPECT_FALSE(map.Get(10).has_value());
  EXPECT_EQ(map.Size(), 0u);
  map.Put(10, 300);
  EXPECT_EQ(map.Get(10).value(), 300);
}

TEST(KiWiBasics, ScanBoundsInclusive) {
  KiWiMap map;
  for (Key k = 1; k <= 10; ++k) map.Put(k * 10, k);
  std::vector<KiWiMap::Entry> out;
  EXPECT_EQ(map.Scan(20, 50, out), 4u);  // 20, 30, 40, 50
  EXPECT_EQ(out.front().first, 20);
  EXPECT_EQ(out.back().first, 50);
  // Empty range and reversed bounds.
  EXPECT_EQ(map.Scan(21, 29, out), 0u);
  EXPECT_EQ(map.Scan(50, 20, out), 0u);
  // Single key.
  EXPECT_EQ(map.Scan(30, 30, out), 1u);
}

TEST(KiWiBasics, ExtremeKeysWork) {
  KiWiMap map;
  map.Put(kMinUserKey, 1);
  map.Put(kMaxUserKey, 2);
  map.Put(0, 3);
  map.Put(-1000000, 4);
  EXPECT_EQ(map.Get(kMinUserKey).value(), 1);
  EXPECT_EQ(map.Get(kMaxUserKey).value(), 2);
  std::vector<KiWiMap::Entry> out;
  EXPECT_EQ(map.Scan(kMinUserKey, kMaxUserKey, out), 4u);
  EXPECT_EQ(out[0].first, kMinUserKey);
  EXPECT_EQ(out[1].first, -1000000);
  EXPECT_EQ(out[2].first, 0);
  EXPECT_EQ(out[3].first, kMaxUserKey);
}

TEST(KiWiBasics, NegativeValuesRoundTrip) {
  KiWiMap map;
  map.Put(1, -1);
  map.Put(2, std::numeric_limits<Value>::max());
  map.Put(3, kTombstoneValue + 1);  // most negative legal value
  EXPECT_EQ(map.Get(1).value(), -1);
  EXPECT_EQ(map.Get(2).value(), std::numeric_limits<Value>::max());
  EXPECT_EQ(map.Get(3).value(), kTombstoneValue + 1);
}

class KiWiChunkSizes : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  KiWiConfig Config() const {
    KiWiConfig config;
    config.chunk_capacity = GetParam();
    return config;
  }
};

TEST_P(KiWiChunkSizes, MatchesOracleUnderRandomOps) {
  KiWiMap map(Config());
  std::map<Key, Value> oracle;
  Xoshiro256 rng(GetParam() * 7919 + 13);
  for (int i = 0; i < 30000; ++i) {
    const Key key = static_cast<Key>(rng.NextBounded(4000));
    if (rng.NextBool(0.3)) {
      map.Remove(key);
      oracle.erase(key);
    } else {
      const Value value = static_cast<Value>(rng.NextBounded(1u << 30));
      map.Put(key, value);
      oracle[key] = value;
    }
    if (i % 5000 == 4999) {
      // Full-scan equality with the oracle.
      std::vector<KiWiMap::Entry> out;
      map.Scan(kMinUserKey, kMaxUserKey, out);
      ASSERT_EQ(out.size(), oracle.size()) << "iteration " << i;
      auto it = oracle.begin();
      for (const auto& [k, v] : out) {
        ASSERT_EQ(k, it->first);
        ASSERT_EQ(v, it->second);
        ++it;
      }
    }
  }
  // Point reads for every oracle key and for a sample of absent keys.
  for (const auto& [k, v] : oracle) ASSERT_EQ(map.Get(k).value_or(-1), v);
  for (int i = 0; i < 1000; ++i) {
    const Key key = 4000 + static_cast<Key>(rng.NextBounded(1000));
    ASSERT_FALSE(map.Get(key).has_value());
  }
  map.CheckInvariants();
}

TEST_P(KiWiChunkSizes, PartialScansMatchOracle) {
  KiWiMap map(Config());
  std::map<Key, Value> oracle;
  Xoshiro256 rng(GetParam() + 99);
  for (int i = 0; i < 5000; ++i) {
    const Key key = static_cast<Key>(rng.NextBounded(10000));
    map.Put(key, key * 2);
    oracle[key] = key * 2;
  }
  std::vector<KiWiMap::Entry> out;
  for (int i = 0; i < 200; ++i) {
    const Key from = static_cast<Key>(rng.NextBounded(10000));
    const Key to = from + static_cast<Key>(rng.NextBounded(500));
    map.Scan(from, to, out);
    auto it = oracle.lower_bound(from);
    std::size_t expected = 0;
    for (; it != oracle.end() && it->first <= to; ++it, ++expected) {
      ASSERT_LT(expected, out.size());
      ASSERT_EQ(out[expected].first, it->first);
      ASSERT_EQ(out[expected].second, it->second);
    }
    ASSERT_EQ(out.size(), expected);
  }
}

TEST_P(KiWiChunkSizes, SequentialInsertionStaysBalanced) {
  // The §6.2 scenario: monotonically increasing keys.  A balanced structure
  // keeps splitting; throughput (here: completion) must not degenerate and
  // the data must survive intact.
  KiWiMap map(Config());
  constexpr Key kCount = 20000;
  for (Key k = 0; k < kCount; ++k) map.Put(k, k);
  EXPECT_EQ(map.Size(), static_cast<std::size_t>(kCount));
  std::vector<KiWiMap::Entry> out;
  map.Scan(0, kCount - 1, out);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kCount));
  for (Key k = 0; k < kCount; ++k) ASSERT_EQ(out[k].second, k);
  map.CheckInvariants();
  // Chunk count reflects the dataset, not the insertion order pathology.
  EXPECT_GT(map.Census().chunks, kCount / Config().chunk_capacity);
}

INSTANTIATE_TEST_SUITE_P(Capacities, KiWiChunkSizes,
                         ::testing::Values(8u, 32u, 128u, 1024u),
                         [](const auto& info) {
                           return "cap" + std::to_string(info.param);
                         });

TEST(KiWiRebalance, CompactionDropsObsoleteVersions) {
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  // Overwrite one key many times with scans absent: versions share GV and
  // overwrite in place, but interleave scans to force version retention.
  std::vector<KiWiMap::Entry> out;
  for (int i = 0; i < 500; ++i) {
    map.Put(7, i);
    if (i % 10 == 0) map.Scan(0, 100, out);  // bumps GV
  }
  EXPECT_EQ(map.Get(7).value(), 499);
  map.CompactAll();
  EXPECT_EQ(map.Get(7).value(), 499);
  EXPECT_EQ(map.Size(), 1u);
  map.CheckInvariants();
}

TEST(KiWiRebalance, CompactionPurgesTombstones) {
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  for (Key k = 0; k < 1000; ++k) map.Put(k, k);
  for (Key k = 0; k < 1000; k += 2) map.Remove(k);
  map.CompactAll();
  EXPECT_EQ(map.Size(), 500u);
  for (Key k = 1; k < 1000; k += 2) ASSERT_EQ(map.Get(k).value_or(-1), k);
  map.CheckInvariants();
}

TEST(KiWiRebalance, MergeShrinksChunkCount) {
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  for (Key k = 0; k < 5000; ++k) map.Put(k, k);
  // Deleting most data leaves many under-utilized chunks...
  for (Key k = 0; k < 5000; ++k) {
    if (k % 10 != 0) map.Remove(k);
  }
  map.CompactAll();
  const std::uint64_t after_first = map.Census().chunks;
  map.CompactAll();  // merges cascade over a couple of passes
  EXPECT_LE(map.Census().chunks, after_first);
  EXPECT_EQ(map.Size(), 500u);
  map.CheckInvariants();
}

TEST(KiWiRebalance, StatsAccumulate) {
#if !KIWI_OBS_ENABLED
  GTEST_SKIP() << "counters compiled out (KIWI_STATS=OFF)";
#else
  KiWiConfig config;
  config.chunk_capacity = 16;
  KiWiMap map(config);
  for (Key k = 0; k < 2000; ++k) map.Put(k, k);
  const obs::OpCounters stats = map.DebugReport().counters;
  EXPECT_EQ(stats.puts, 2000u);
  EXPECT_GT(stats.rebalances, 0u);
  EXPECT_GT(stats.rebalance_wins, 0u);
  EXPECT_GT(stats.chunks_created, 0u);
  EXPECT_GT(stats.put_restarts, 0u);
  EXPECT_GE(stats.rebalances, stats.rebalance_wins);
#endif
}

TEST(KiWiRebalance, ReclamationDrains) {
  KiWiConfig config;
  config.chunk_capacity = 16;
  KiWiMap map(config);
  for (Key k = 0; k < 5000; ++k) map.Put(k, k);
  map.DrainReclamation();
  EXPECT_EQ(map.Reclaimer().PendingCount(), 0u);
#if KIWI_OBS_ENABLED
  // Retired chunk accounting is consistent with creations.
  const obs::OpCounters stats = map.DebugReport().counters;
  EXPECT_GE(stats.chunks_created + 1, map.Census().chunks);
#endif
}

TEST(KiWiMemory, FootprintGrowsWithData) {
  KiWiMap map;
  const std::size_t empty = map.MemoryFootprint();
  for (Key k = 0; k < 50000; ++k) map.Put(k, k);
  map.DrainReclamation();
  const std::size_t loaded = map.MemoryFootprint();
  EXPECT_GT(loaded, empty);
  // Sanity: within an order of magnitude of entries * cell size.
  EXPECT_LT(loaded, 50000u * 200u + (1u << 22));
}

// Every rebalance a put triggers restarts it (paper §6.1); the oracle must
// still see every write exactly once.
TEST(KiWiPiggyback, PutsCompleteInsideRebalance) {
  KiWiConfig config;
  config.chunk_capacity = 16;
  KiWiMap map(config);
  std::map<Key, Value> oracle;
  Xoshiro256 rng(1234);
  for (int i = 0; i < 20000; ++i) {
    const Key key = static_cast<Key>(rng.NextBounded(500));
    if (rng.NextBool(0.25)) {
      map.Remove(key);
      oracle.erase(key);
    } else {
      map.Put(key, i);
      oracle[key] = i;
    }
  }
  for (const auto& [k, v] : oracle) ASSERT_EQ(map.Get(k).value_or(-1), v);
  EXPECT_EQ(map.Size(), oracle.size());
#if KIWI_OBS_ENABLED
  // Counters read zero in a KIWI_STATS=OFF build.
  EXPECT_GT(map.DebugReport().counters.put_restarts, 0u);
#endif
  map.CheckInvariants();
}

}  // namespace
}  // namespace kiwi::core
