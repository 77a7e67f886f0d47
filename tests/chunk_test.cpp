// Unit tests for the chunk data structure: PPA word packing, batched-prefix
// binary search, intra-chunk list operations, versioned reads, freezing,
// helping, and harvest.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/thread_registry.h"
#include "core/chunk.h"
#include "reclaim/pool.h"

namespace kiwi::core {
namespace {

using Item = Chunk::Item;

// Chunks are slab-allocated through a SlabPool; tests share one and own the
// result through a Destroy-ing unique_ptr.
using ChunkPtr = std::unique_ptr<Chunk, decltype(&Chunk::Destroy)>;

reclaim::SlabPool& TestPool() {
  static reclaim::SlabPool pool;
  return pool;
}

ChunkPtr MakeChunkWith(std::vector<Item> items, std::uint32_t capacity = 64) {
  return ChunkPtr(Chunk::Create(TestPool(), kMinUserKey, capacity, nullptr,
                                Chunk::Status::kNormal, items),
                  &Chunk::Destroy);
}

TEST(PpaWord, PackRoundTrips) {
  const std::uint64_t word = Chunk::PackPpa(0x123456789ABCull, 0x321);
  EXPECT_EQ(Chunk::PpaVer(word), 0x123456789ABCull);
  EXPECT_EQ(Chunk::PpaIdx(word), 0x321u);
}

TEST(PpaWord, SpecialValuesDistinct) {
  EXPECT_EQ(Chunk::PpaVer(Chunk::kPpaIdle), Chunk::kPpaVerBottom);
  EXPECT_EQ(Chunk::PpaIdx(Chunk::kPpaIdle), Chunk::kPpaNoIdx);
  EXPECT_NE(Chunk::kPpaVerFrozen, Chunk::kPpaVerBottom);
  EXPECT_GT(Chunk::kPpaVerFrozen, kMaxReadVersion);
}

TEST(ChunkBatched, ConstructorSeedsSortedPrefix) {
  std::vector<Item> items;
  for (int i = 0; i < 10; ++i) {
    items.push_back(Item{100 + i * 10, 1, 0, i});
  }
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  EXPECT_EQ(chunk.batched_count, 10u);
  EXPECT_EQ(chunk.AllocatedCells(), 10u);
  // Walk the linked list: sequential 1..10 with correct payloads.
  std::int32_t curr = chunk.k[0].next.load();
  int seen = 0;
  while (curr != Chunk::kNullIdx) {
    EXPECT_EQ(chunk.k[curr].key, 100 + seen * 10);
    EXPECT_EQ(chunk.v[chunk.k[curr].val_ptr.load()], seen);
    curr = chunk.k[curr].next.load();
    ++seen;
  }
  EXPECT_EQ(seen, 10);
}

TEST(ChunkBatched, BinarySearchFindsStrictPredecessor) {
  std::vector<Item> items;
  for (int i = 0; i < 16; ++i) items.push_back(Item{10 * (i + 1), 1, 0, i});
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  EXPECT_EQ(chunk.BatchedPredecessor(5), 0);     // sentinel
  EXPECT_EQ(chunk.BatchedPredecessor(10), 0);    // strict: 10 not < 10
  EXPECT_EQ(chunk.BatchedPredecessor(11), 1);
  EXPECT_EQ(chunk.BatchedPredecessor(100), 9);
  EXPECT_EQ(chunk.BatchedPredecessor(10000), 16);
}

TEST(ChunkBatched, VersionsDescendWithinKey) {
  // Two versions of key 50, newest first.
  std::vector<Item> items{{50, 7, 0, 700}, {50, 3, 1, 300}, {60, 1, 2, 600}};
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  // Latest at unbounded read point: version 7.
  auto latest = chunk.FindLatest(50, kMaxReadVersion);
  ASSERT_TRUE(latest.found);
  EXPECT_EQ(latest.version, 7u);
  EXPECT_EQ(latest.value, 700);
  // A scan with read point 5 sees version 3.
  latest = chunk.FindLatest(50, 5);
  ASSERT_TRUE(latest.found);
  EXPECT_EQ(latest.version, 3u);
  EXPECT_EQ(latest.value, 300);
  // A scan with read point 2 sees nothing.
  EXPECT_FALSE(chunk.FindLatest(50, 2).found);
}

TEST(ChunkFind, ReportsInsertionPoint) {
  std::vector<Item> items{{10, 1, 0, 0}, {30, 1, 1, 0}};
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  std::int32_t pred = -2, succ = -2;
  // Missing key between the two: pred = cell(10), succ = cell(30).
  EXPECT_EQ(chunk.FindCellFrom(Chunk::kNullIdx, 20, 1, &pred, &succ),
            Chunk::kNullIdx);
  EXPECT_EQ(chunk.k[pred].key, 10);
  EXPECT_EQ(chunk.k[succ].key, 30);
  // Exact {key, version} hit.
  const std::int32_t hit =
      chunk.FindCellFrom(Chunk::kNullIdx, 30, 1, &pred, &succ);
  ASSERT_NE(hit, Chunk::kNullIdx);
  EXPECT_EQ(chunk.k[hit].key, 30);
  // Same key, different version: miss, positioned after version 1?  A
  // *newer* version (5 > 1) belongs before the existing cell.
  EXPECT_EQ(chunk.FindCellFrom(Chunk::kNullIdx, 30, 5, &pred, &succ),
            Chunk::kNullIdx);
  EXPECT_EQ(chunk.k[pred].key, 10);
  EXPECT_EQ(chunk.k[succ].key, 30);
}

TEST(ChunkPpa, PendingPutVisibleThroughFindLatest) {
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  // Simulate the put protocol up to version acquisition: value + cell.
  chunk.v[0] = 4242;
  chunk.k[1].key = 77;
  chunk.k[1].val_ptr.store(0);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  chunk.ppa[slot].store(Chunk::PackPpa(9, 1));  // version 9, cell 1
  const auto latest = chunk.FindLatest(77, kMaxReadVersion);
  ASSERT_TRUE(latest.found);
  EXPECT_EQ(latest.value, 4242);
  EXPECT_EQ(latest.version, 9u);
  // Bounded read below the pending version misses it.
  EXPECT_FALSE(chunk.FindLatest(77, 8).found);
  chunk.ppa[slot].store(Chunk::kPpaIdle);
}

TEST(ChunkPpa, VersionlessEntryIgnoredByReadsButHelped) {
  GlobalVersion gv;
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  chunk.v[0] = 1;
  chunk.k[1].key = 55;
  chunk.k[1].val_ptr.store(0);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  chunk.ppa[slot].store(Chunk::PackPpa(Chunk::kPpaVerBottom, 1));
  // Unversioned pending puts are invisible (they ordered after us)...
  EXPECT_FALSE(chunk.FindLatest(55, kMaxReadVersion).found);
  // ...until helping installs the current GV.
  chunk.HelpPendingPuts(gv, 0, 100);
  const std::uint64_t word = chunk.ppa[slot].load();
  EXPECT_EQ(Chunk::PpaVer(word), gv.Load());
  EXPECT_TRUE(chunk.FindLatest(55, kMaxReadVersion).found);
  chunk.ppa[slot].store(Chunk::kPpaIdle);
}

TEST(ChunkPpa, HelpRespectsKeyRange) {
  GlobalVersion gv;
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  chunk.k[1].key = 500;
  chunk.k[1].val_ptr.store(0);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  chunk.ppa[slot].store(Chunk::PackPpa(Chunk::kPpaVerBottom, 1));
  chunk.HelpPendingPuts(gv, 0, 100);  // range misses key 500
  EXPECT_EQ(Chunk::PpaVer(chunk.ppa[slot].load()), Chunk::kPpaVerBottom);
  chunk.ppa[slot].store(Chunk::kPpaIdle);
}

TEST(ChunkPpa, FreezeBlocksVersionlessEntries) {
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  // One versionless pending put and one already-versioned entry.
  chunk.ppa[slot].store(Chunk::PackPpa(Chunk::kPpaVerBottom, 3));
  const std::size_t other = (slot + 1) % kMaxThreads;
  chunk.ppa[other].store(Chunk::PackPpa(12, 4));
  chunk.FreezePpa();
  EXPECT_EQ(Chunk::PpaVer(chunk.ppa[slot].load()), Chunk::kPpaVerFrozen);
  EXPECT_EQ(Chunk::PpaVer(chunk.ppa[other].load()), 12u);  // untouched
  // A put's version CAS (⊥ -> gv) must now fail.
  std::uint64_t expected = Chunk::PackPpa(Chunk::kPpaVerBottom, 3);
  EXPECT_FALSE(chunk.ppa[slot].compare_exchange_strong(
      expected, Chunk::PackPpa(1, 3)));
  chunk.ppa[slot].store(Chunk::kPpaIdle);
  chunk.ppa[other].store(Chunk::kPpaIdle);
}

TEST(ChunkHarvest, CollectMergesListAndPpa) {
  std::vector<Item> items{{10, 2, 0, 100}, {20, 2, 1, 200}};
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  // A versioned pending put for a new key 15.
  chunk.v[2] = 150;
  chunk.k[3].key = 15;
  chunk.k[3].val_ptr.store(2);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  chunk.ppa[slot].store(Chunk::PackPpa(5, 3));
  std::vector<Item> harvested;
  chunk.CollectItems(harvested);
  ASSERT_EQ(harvested.size(), 3u);
  EXPECT_EQ(harvested[0].key, 10);
  EXPECT_EQ(harvested[1].key, 15);
  EXPECT_EQ(harvested[1].version, 5u);
  EXPECT_EQ(harvested[1].value, 150);
  EXPECT_EQ(harvested[2].key, 20);
  chunk.ppa[slot].store(Chunk::kPpaIdle);
}

TEST(ChunkHarvest, DuplicateKeyVersionKeepsLargerValPtr) {
  // List holds {50, v3, valPtr 0}; PPA publishes {50, v3, valPtr 1}: the
  // larger location wins (paper's tie break), exactly once in the harvest.
  std::vector<Item> items{{50, 3, 0, 111}};
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  chunk.v[1] = 222;
  chunk.k[2].key = 50;
  chunk.k[2].val_ptr.store(1);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  chunk.ppa[slot].store(Chunk::PackPpa(3, 2));
  std::vector<Item> harvested;
  chunk.CollectItems(harvested);
  ASSERT_EQ(harvested.size(), 1u);
  EXPECT_EQ(harvested[0].val_ptr, 1);
  EXPECT_EQ(harvested[0].value, 222);
  // FindLatest applies the same tie break.
  const auto latest = chunk.FindLatest(50, kMaxReadVersion);
  EXPECT_EQ(latest.value, 222);
  chunk.ppa[slot].store(Chunk::kPpaIdle);
}

TEST(ChunkGeometry, CoversKeyUsesNextMinKey) {
  ChunkPtr low_owner(Chunk::Create(TestPool(), kMinUserKey, 8, nullptr,
                                   Chunk::Status::kNormal),
                     &Chunk::Destroy);
  ChunkPtr high_owner(Chunk::Create(TestPool(), 1000, 8, nullptr,
                                    Chunk::Status::kNormal),
                      &Chunk::Destroy);
  Chunk& low = *low_owner;
  Chunk& high = *high_owner;
  low.next.Store(MarkedPtr<Chunk>(&high, false));
  EXPECT_TRUE(low.CoversKey(kMinUserKey));
  EXPECT_TRUE(low.CoversKey(999));
  EXPECT_FALSE(low.CoversKey(1000));
  EXPECT_TRUE(high.CoversKey(1000));
  EXPECT_TRUE(high.CoversKey(kMaxUserKey));
  EXPECT_FALSE(high.CoversKey(5));
  EXPECT_GT(low.MemoryFootprint(), 8 * sizeof(Chunk::Cell));
}

// ---- byte-layout arenas --------------------------------------------------

using ByteChunk = ChunkT<ByteLayout>;
using ByteItem = ByteChunk::Item;
using ByteChunkPtr = std::unique_ptr<ByteChunk, decltype(&ByteChunk::Destroy)>;

TEST(ByteChunkArena, MakePrefixOrderMatchesLexicographicOrder) {
  // The normalized prefix must order exactly like the first-8-byte
  // truncation of the key, on any host endianness (the >= 8 branch packs
  // via memcpy + conditional bswap; this cross-checks it against the
  // byte-at-a-time construction the short-key branch uses).
  const std::vector<std::string> keys = {
      std::string(1, '\0'), "a", "abcdefgh", "abcdefgi", "abcdefghzzz",
      "abcdefgh\x01", std::string("\x00\xff" "abcdef", 8),
      std::string(8, '\xff'), std::string(9, '\xff'), "zzzzzzz"};
  for (const std::string& a : keys) {
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(a.size(), 8); ++i) {
      expected |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(a[i]))
                  << (56 - 8 * i);
    }
    EXPECT_EQ(ByteLayout::MakePrefix(a), expected) << a;
    for (const std::string& b : keys) {
      const std::string ta = a.substr(0, 8);
      const std::string tb = b.substr(0, 8);
      if (ta < tb) {
        EXPECT_LT(ByteLayout::MakePrefix(a), ByteLayout::MakePrefix(b));
      } else if (ta == tb) {
        EXPECT_EQ(ByteLayout::MakePrefix(a), ByteLayout::MakePrefix(b));
      }
    }
  }
}

TEST(ByteChunkArena, ClaimsAreExclusiveAndBounded) {
  ByteChunkPtr owner(ByteChunk::Create(TestPool(), ByteLayout::MinUserKey(),
                                       8, nullptr, ByteChunk::Status::kNormal,
                                       {}, /*arena_capacity=*/64),
                     &ByteChunk::Destroy);
  ByteChunk& chunk = *owner;
  EXPECT_EQ(chunk.ArenaUsed(), 1u);  // the min_key ("\0") copy
  std::uint32_t a = 0, b = 0;
  ASSERT_TRUE(chunk.ClaimArena(30, &a));
  ASSERT_TRUE(chunk.ClaimArena(33, &b));  // 1 + 30 + 33 == 64 exactly
  EXPECT_NE(a, b);
  EXPECT_EQ(chunk.ArenaUsed(), 64u);
  std::uint32_t c = 0;
  EXPECT_FALSE(chunk.ClaimArena(1, &c)) << "arena exhausted";
  // The failed claim's dead reservation clamps in ArenaUsed.
  EXPECT_EQ(chunk.ArenaUsed(), 64u);
}

TEST(ByteChunkArena, BuildCopyCompactsDeadReservations) {
  // A source chunk whose arena is fragmented: live entries interleaved with
  // dead reservations (obsolete versions and a failed claim).
  ByteChunkPtr src_owner(
      ByteChunk::Create(TestPool(), ByteLayout::MinUserKey(), 16, nullptr,
                        ByteChunk::Status::kNormal, {}, 512),
      &ByteChunk::Destroy);
  ByteChunk& src = *src_owner;
  std::uint32_t waste = 0;
  ASSERT_TRUE(src.ClaimArena(100, &waste));  // dead: an abandoned claim
  // Install two live entries by hand at claimed offsets, linked via cell 1
  // and 2 (sorted order).
  const std::string_view keys[2] = {"alpha", "beta"};
  const std::string_view vals[2] = {"AAAA", "BBBBBBBB"};
  for (int i = 0; i < 2; ++i) {
    std::uint32_t off = 0;
    const std::uint32_t need =
        static_cast<std::uint32_t>(keys[i].size() + vals[i].size());
    ASSERT_TRUE(src.ClaimArena(need, &off));
    std::memcpy(src.a + off, keys[i].data(), keys[i].size());
    std::memcpy(src.a + off + keys[i].size(), vals[i].data(), vals[i].size());
    src.k[i + 1].key = ByteLayout::CellKey{
        ByteLayout::MakePrefix(keys[i]), off,
        static_cast<std::uint32_t>(keys[i].size())};
    src.k[i + 1].version = 1;
    src.k[i + 1].val_ptr.store(i);
    src.v[i] = ByteLayout::StoredValue{
        static_cast<std::uint32_t>(off + keys[i].size()),
        static_cast<std::uint32_t>(vals[i].size())};
  }
  src.k[0].next.store(1);
  src.k[1].next.store(2);
  src.k[2].next.store(ByteChunk::kNullIdx);
  src.k_counter.store(3);
  src.v_counter.store(2);
  const std::uint32_t fragmented = src.ArenaUsed();

  // Rebalance's build step: harvest and copy into a fresh chunk.  The copy
  // IS the compaction — dead reservations do not travel.
  std::vector<ByteItem> items;
  src.CollectItems(items);
  ASSERT_EQ(items.size(), 2u);
  ByteChunkPtr dst_owner(
      ByteChunk::Create(TestPool(), ByteLayout::MinUserKey(), 16, nullptr,
                        ByteChunk::Status::kInfant,
                        std::span<const ByteItem>(items), 512),
      &ByteChunk::Destroy);
  ByteChunk& dst = *dst_owner;
  const std::uint32_t live_bytes = static_cast<std::uint32_t>(
      1 +  // min_key "\0"
      keys[0].size() + vals[0].size() + keys[1].size() + vals[1].size());
  EXPECT_EQ(dst.ArenaUsed(), live_bytes);
  EXPECT_LT(dst.ArenaUsed(), fragmented) << "compaction reclaimed dead bytes";
  // The copied entries read back through the normal lookup path.
  const auto alpha = dst.FindLatest("alpha", kMaxReadVersion);
  ASSERT_TRUE(alpha.found);
  EXPECT_EQ(alpha.value, "AAAA");
  const auto beta = dst.FindLatest("beta", kMaxReadVersion);
  ASSERT_TRUE(beta.found);
  EXPECT_EQ(beta.value, "BBBBBBBB");
}

TEST(ByteChunkArena, TombstonesCarryNoArenaBytes) {
  std::vector<ByteItem> items;
  items.push_back(ByteItem{"gone", 2, 0, ByteLayout::TombstoneValue()});
  ByteChunkPtr owner(
      ByteChunk::Create(TestPool(), ByteLayout::MinUserKey(), 8, nullptr,
                        ByteChunk::Status::kNormal,
                        std::span<const ByteItem>(items), 128),
      &ByteChunk::Destroy);
  ByteChunk& chunk = *owner;
  EXPECT_EQ(chunk.ArenaUsed(), 1u + 4u);  // min_key + the key only
  const auto latest = chunk.FindLatest("gone", kMaxReadVersion);
  ASSERT_TRUE(latest.found);
  EXPECT_TRUE(latest.is_tombstone);
}

}  // namespace
}  // namespace kiwi::core
