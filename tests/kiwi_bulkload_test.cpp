// Tests for bulk-load construction and the structural report.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/kiwi_map.h"
#include "obs/census.h"

namespace kiwi::core {
namespace {

std::vector<KiWiMap::Entry> MakeSorted(std::size_t count, Key stride = 3) {
  std::vector<KiWiMap::Entry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    entries.emplace_back(static_cast<Key>(i) * stride,
                         static_cast<Value>(i) * 7);
  }
  return entries;
}

TEST(KiWiBulkLoad, EmptyInputYieldsEmptyMap) {
  KiWiMap map(std::span<const KiWiMap::Entry>{});
  EXPECT_EQ(map.Size(), 0u);
  map.CheckInvariants();
}

TEST(KiWiBulkLoad, LoadsAllEntries) {
  const auto entries = MakeSorted(10000);
  KiWiMap map(entries);
  EXPECT_EQ(map.Size(), entries.size());
  for (const auto& [k, v] : entries) {
    ASSERT_EQ(map.Get(k).value_or(-1), v);
  }
  // Absent keys between strides.
  EXPECT_FALSE(map.Get(1).has_value());
  EXPECT_FALSE(map.Get(4).has_value());
  map.CheckInvariants();
}

TEST(KiWiBulkLoad, ScansMatchInput) {
  const auto entries = MakeSorted(5000);
  KiWiMap map(entries);
  std::vector<KiWiMap::Entry> out;
  map.Scan(kMinUserKey, kMaxUserKey, out);
  ASSERT_EQ(out.size(), entries.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), entries.begin()));
}

TEST(KiWiBulkLoad, ChunksAreHalfFilled) {
  KiWiConfig config;
  config.chunk_capacity = 128;  // fill = 64
  const auto entries = MakeSorted(6400);
  KiWiMap map(entries, config);
  const obs::ChunkCensus census = map.Census();
  EXPECT_EQ(census.chunks, 100u);  // 6400 / 64
  EXPECT_NEAR(census.avg_fill, 0.5, 0.01);
  EXPECT_NEAR(census.batched_ratio, 1.0, 1e-9);  // fully sorted
}

TEST(KiWiBulkLoad, MutationsAfterLoadWork) {
  KiWiConfig config;
  config.chunk_capacity = 64;
  const auto entries = MakeSorted(2000);
  KiWiMap map(entries, config);
  // Overwrite, insert between strides, delete.
  map.Put(0, 111);
  map.Put(1, 222);       // new key inside the first chunk's range
  map.Remove(3);
  for (Key k = 6000; k < 6300; ++k) map.Put(k, k);  // grow the tail
  EXPECT_EQ(map.Get(0).value_or(-1), 111);
  EXPECT_EQ(map.Get(1).value_or(-1), 222);
  EXPECT_FALSE(map.Get(3).has_value());
  EXPECT_EQ(map.Size(), 2000u - 1 + 1 + 300);
  map.CheckInvariants();
}

TEST(KiWiBulkLoad, RoundTripsABackup) {
  // Dump via scan, reload via bulk ctor: the canonical restore path.
  KiWiMap original(KiWiConfig{.chunk_capacity = 32});
  Xoshiro256 rng(8);
  for (int i = 0; i < 3000; ++i) {
    original.Put(static_cast<Key>(rng.NextBounded(10000)), i);
  }
  std::vector<KiWiMap::Entry> dump;
  original.Scan(kMinUserKey, kMaxUserKey, dump);
  KiWiMap restored(dump);
  EXPECT_EQ(restored.Size(), original.Size());
  std::vector<KiWiMap::Entry> redump;
  restored.Scan(kMinUserKey, kMaxUserKey, redump);
  EXPECT_EQ(redump, dump);
}

TEST(KiWiReport, TracksBatchedDecay) {
  KiWiConfig config;
  config.chunk_capacity = 256;
  config.rebalance_probability = 0.0;  // no probabilistic rebalances
  const auto entries = MakeSorted(1280);  // 10 chunks, fully batched
  KiWiMap map(entries, config);
  const double before = map.Census().batched_ratio;
  // Random inserts between the strides create linked-list bypasses and
  // dilute the batched prefix.
  Xoshiro256 rng(4);
  for (int i = 0; i < 600; ++i) {
    map.Put(static_cast<Key>(rng.NextBounded(1280 * 3)), i);
  }
  const double after = map.Census().batched_ratio;
  EXPECT_LT(after, before);
  EXPECT_GT(map.Census().allocated_cells, 1280u);
}

}  // namespace
}  // namespace kiwi::core
