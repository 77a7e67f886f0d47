// Tests for PutBatch: run splitting, the bulk-build path, duplicate
// semantics, and batches racing rebalances (docs/INGEST.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "api/map_interface.h"
#include "common/random.h"
#include "core/kiwi_map.h"
#include "obs/census.h"

namespace kiwi::core {
namespace {

using Entry = KiWiMap::Entry;

std::vector<Entry> MakeAscending(Key first, std::size_t count,
                                 Key stride = 1) {
  std::vector<Entry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Key k = first + static_cast<Key>(i) * stride;
    entries.emplace_back(k, static_cast<Value>(k) * 7);
  }
  return entries;
}

TEST(KiWiBatch, EmptyBatchIsANoOp) {
  KiWiMap map;
  map.PutBatch({});
  EXPECT_EQ(map.Size(), 0u);
  map.CheckInvariants();
}

TEST(KiWiBatch, SingleEntryBehavesLikePut) {
  KiWiMap map;
  const Entry entry{42, 420};
  map.PutBatch(std::span<const Entry>(&entry, 1));
  EXPECT_EQ(map.Get(42).value_or(-1), 420);
  EXPECT_EQ(map.Size(), 1u);
  map.CheckInvariants();
}

TEST(KiWiBatch, UnsortedInputIsSortedInternally) {
  KiWiMap map;
  std::vector<Entry> entries = MakeAscending(1, 500);
  Xoshiro256 rng(17);
  for (std::size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.NextBounded(i)]);
  }
  map.PutBatch(entries);
  EXPECT_EQ(map.Size(), 500u);
  for (Key k = 1; k <= 500; ++k) {
    ASSERT_EQ(map.Get(k).value_or(-1), static_cast<Value>(k) * 7);
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, DuplicateKeysLastOccurrenceWins) {
  KiWiMap map;
  const std::vector<Entry> entries{
      {5, 100}, {7, 200}, {5, 101}, {9, 300}, {5, 102}, {7, 201}};
  map.PutBatch(entries);
  EXPECT_EQ(map.Get(5).value_or(-1), 102);
  EXPECT_EQ(map.Get(7).value_or(-1), 201);
  EXPECT_EQ(map.Get(9).value_or(-1), 300);
  EXPECT_EQ(map.Size(), 3u);
  map.CheckInvariants();
}

TEST(KiWiBatch, BatchOverwritesExistingKeys) {
  KiWiMap map;
  for (Key k = 1; k <= 200; ++k) map.Put(k, -static_cast<Value>(k));
  map.PutBatch(std::vector<Entry>(MakeAscending(50, 100)));
  for (Key k = 1; k <= 200; ++k) {
    const Value expected =
        (k >= 50 && k < 150) ? static_cast<Value>(k) * 7 : -static_cast<Value>(k);
    ASSERT_EQ(map.Get(k).value_or(0), expected) << "key " << k;
  }
  EXPECT_EQ(map.Size(), 200u);
  map.CheckInvariants();
}

TEST(KiWiBatch, SpansManyChunks) {
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  // Seed enough keys to split the map into several chunks, then batch
  // across the full range so the run splitter must walk chunk to chunk.
  for (Key k = 1; k <= 2000; k += 2) map.Put(k, 0);
  map.PutBatch(std::vector<Entry>(MakeAscending(1, 2000)));
  EXPECT_EQ(map.Size(), 2000u);
  std::vector<Entry> out;
  map.Scan(kMinUserKey, kMaxUserKey, out);
  ASSERT_EQ(out.size(), 2000u);
  for (Key k = 1; k <= 2000; ++k) {
    ASSERT_EQ(out[static_cast<std::size_t>(k - 1)],
              (Entry{k, static_cast<Value>(k) * 7}));
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, PresortedIngestTakesBulkPath) {
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  map.PutBatch(std::vector<Entry>(MakeAscending(1, 10000)));
  EXPECT_EQ(map.Size(), 10000u);
  const auto report = map.DebugReport();
  if (report.stats_enabled) {
    EXPECT_EQ(report.counters.put_batches, 1u);
    EXPECT_EQ(report.counters.batch_entries, 10000u);
    // A large presorted batch into a near-empty map must build chunks
    // directly, not trickle through the per-op PPA path.
    EXPECT_GT(report.counters.batch_bulk_entries, 9000u);
  }
  // Bulk-built chunks carry sorted prefixes the scan fast-path can use.
  EXPECT_GT(map.Census().batched_ratio, 0.5);
  map.CheckInvariants();
}

TEST(KiWiBatch, SmallRunsUsePerOpPath) {
  KiWiConfig config;
  config.chunk_capacity = 128;  // bulk threshold: max(4, 128 / 8) = 16
  KiWiMap map(config);
  constexpr std::size_t kBatch = 10;  // every run is below the threshold
  map.PutBatch(MakeAscending(1, kBatch));
  const auto report = map.DebugReport();
  if (report.stats_enabled) {
    // The first batch lands in the empty initial chunk, which the policy
    // has no reason to rebalance: every entry goes through the per-op
    // path.  Later batches may trip a rebalance and ride its build.
    EXPECT_EQ(report.counters.put_batches, 1u);
    EXPECT_EQ(report.counters.batch_bulk_entries, 0u);
  }
  for (Key first = 1 + kBatch; first <= 500; first += kBatch) {
    map.PutBatch(MakeAscending(first, kBatch));
  }
  EXPECT_EQ(map.Size(), 500u);
  for (Key k = 1; k <= 500; ++k) {
    ASSERT_EQ(map.Get(k).value_or(-1), static_cast<Value>(k) * 7);
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, MatchesPerOpSemanticsOnRandomMix) {
  // Oracle check: interleave batches and single puts; final state must
  // equal replaying the same operations through a std::map.
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  std::map<Key, Value> oracle;
  Xoshiro256 rng(23);
  for (int round = 0; round < 50; ++round) {
    std::vector<Entry> batch;
    const std::size_t n = 1 + rng.NextBounded(120);
    for (std::size_t i = 0; i < n; ++i) {
      batch.emplace_back(static_cast<Key>(1 + rng.NextBounded(800)),
                         static_cast<Value>(rng.Next() >> 8 | 1));
    }
    map.PutBatch(batch);
    for (const auto& [k, v] : batch) oracle[k] = v;
    const Key solo = static_cast<Key>(1 + rng.NextBounded(800));
    map.Put(solo, round + 1);
    oracle[solo] = round + 1;
  }
  std::vector<Entry> out;
  map.Scan(kMinUserKey, kMaxUserKey, out);
  ASSERT_EQ(out.size(), oracle.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), oracle.begin(),
                         [](const Entry& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
  map.CheckInvariants();
}

TEST(KiWiBatch, ConcurrentBatchesOnDisjointRanges) {
  // Batches racing each other and the rebalances they trigger: every
  // thread's partition must land completely, and the structure must stay
  // coherent under CheckInvariants.
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  constexpr int kThreads = 4;
  constexpr Key kPerThread = 5000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const auto entries =
          MakeAscending(static_cast<Key>(t) * kPerThread + 1, kPerThread);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // Split into bursts so batches from different threads interleave.
      for (std::size_t off = 0; off < entries.size(); off += 512) {
        const std::size_t n = std::min<std::size_t>(512, entries.size() - off);
        map.PutBatch(std::span<const Entry>(entries.data() + off, n));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(map.Size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (Key k = 1; k <= kThreads * kPerThread; k += 37) {
    ASSERT_EQ(map.Get(k).value_or(-1), static_cast<Value>(k) * 7);
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, ConcurrentBatchesOnOverlappingKeys) {
  // All threads batch the same key range with distinct values; afterwards
  // every key must hold *some* thread's value for it (each entry linearized
  // individually — no torn or lost updates).
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  constexpr int kThreads = 4;
  constexpr Key kKeys = 3000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<Entry> entries;
      for (Key k = 1; k <= kKeys; ++k) {
        entries.emplace_back(k, static_cast<Value>(t + 1) * 1000000 + k);
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t off = 0; off < entries.size(); off += 256) {
        const std::size_t n = std::min<std::size_t>(256, entries.size() - off);
        map.PutBatch(std::span<const Entry>(entries.data() + off, n));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(map.Size(), static_cast<std::size_t>(kKeys));
  for (Key k = 1; k <= kKeys; ++k) {
    const Value v = map.Get(k).value_or(-1);
    const Value owner = v / 1000000;
    ASSERT_GE(owner, 1);
    ASSERT_LE(owner, kThreads);
    ASSERT_EQ(v % 1000000, k);
  }
  map.CheckInvariants();
}

TEST(KiWiBatch, BatchRacingScans) {
  // A scan cutting through an in-flight batch must see a consistent cut:
  // for an ascending batch, once it observes entry i it observes every
  // j < i from the same batch (entries linearize in key order within the
  // covering chunks; weaker property — monotone count — checked here).
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < 20; ++round) {
      map.PutBatch(std::vector<Entry>(
          MakeAscending(static_cast<Key>(round) * 1000 + 1, 1000)));
    }
    done.store(true, std::memory_order_release);
  });
  std::size_t last = 0;
  while (!done.load(std::memory_order_acquire)) {
    std::vector<Entry> out;
    map.Scan(kMinUserKey, kMaxUserKey, out);
    ASSERT_GE(out.size(), last) << "scan went backwards";
    ASSERT_TRUE(std::is_sorted(out.begin(), out.end()));
    last = out.size();
  }
  writer.join();
  EXPECT_EQ(map.Size(), 20000u);
  map.CheckInvariants();
}

TEST(ApiBatch, AdapterDispatchesAndFallbackMatches) {
  // KiWi routes through the native PutBatch; skiplist (no native batch)
  // falls back to the Put loop.  Same input -> same contents.
  const std::vector<api::IOrderedMap::Entry> entries{
      {3, 30}, {1, 10}, {2, 20}, {1, 11}};
  auto kiwi_map = api::MakeMap(api::MapKind::kKiWi);
  auto skip_map = api::MakeMap(api::MapKind::kSkipList);
  kiwi_map->PutBatch(entries);
  skip_map->PutBatch(entries);
  std::vector<api::IOrderedMap::Entry> kiwi_out, skip_out;
  kiwi_map->Scan(kMinUserKey, kMaxUserKey, kiwi_out);
  skip_map->Scan(kMinUserKey, kMaxUserKey, skip_out);
  EXPECT_EQ(kiwi_out, skip_out);
  ASSERT_EQ(kiwi_out.size(), 3u);
  EXPECT_EQ(kiwi_map->Get(1).value_or(-1), 11);  // last occurrence won
}

}  // namespace
}  // namespace kiwi::core
