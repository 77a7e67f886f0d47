// Unit tests for the chunk data structure: the PPA slot protocol,
// batched-prefix binary search, intra-chunk list operations, versioned
// reads, freezing, helping, and harvest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
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

using Seen = std::vector<std::pair<std::uint32_t, Version>>;

// The slots a PPA walk reports at or below `bound`, as {cell, version}.
Seen Versioned(const PendingPuts& ppa, Version bound) {
  Seen seen;
  ppa.ForEachVersioned(kMaxThreads, bound, [&](std::uint32_t cell,
                                               Version ver) {
    seen.emplace_back(cell, ver);
  });
  return seen;
}

// One slot through the protocol.  Publish leaves it at ⊥, which the
// versioned walk skips; help or take-version makes it visible to bounds at
// or above its version; clear idles it.  Freeze turns ⊥ slots, idle or
// pending, frozen, so publish and take-version then fail, and leaves
// versioned slots alone.
TEST(PendingPuts, SlotStateMachine) {
  GlobalVersion gv;
  gv.FetchIncrement();
  gv.FetchIncrement();  // GV = 3
  PendingPuts ppa;
  // Help walks the slots below the registry's high-water mark.
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  const auto accept = [](std::uint32_t cell) { return cell == 7; };
  bool helped = false;

  EXPECT_EQ(Versioned(ppa, kMaxReadVersion), Seen{});
  ASSERT_TRUE(ppa.Publish(slot, 7));
  EXPECT_FALSE(ppa.Publish(slot, 8)) << "publish needs an idle slot";
  EXPECT_EQ(Versioned(ppa, kMaxReadVersion), Seen{}) << "⊥ is skipped";
  ppa.Help(gv, [](std::uint32_t) { return false; });
  EXPECT_EQ(Versioned(ppa, kMaxReadVersion), Seen{}) << "help filters";
  ppa.Help(gv, accept);
  EXPECT_EQ(Versioned(ppa, 2), Seen{});
  EXPECT_EQ(Versioned(ppa, 3), (Seen{{7, 3}}));
  // The owner adopts the helper's version.
  EXPECT_EQ(ppa.TakeVersion(slot, 7, 9, &helped), 3u);
  EXPECT_TRUE(helped);
  ppa.Clear(slot);
  EXPECT_EQ(Versioned(ppa, kMaxReadVersion), Seen{});

  // The owner versions its own slot.
  ASSERT_TRUE(ppa.Publish(slot, 9));
  EXPECT_EQ(ppa.TakeVersion(slot, 9, 5, &helped), 5u);
  EXPECT_FALSE(helped);
  EXPECT_EQ(Versioned(ppa, 4), Seen{});
  EXPECT_EQ(Versioned(ppa, 5), (Seen{{9, 5}}));
  ppa.Help(gv, accept);  // a versioned slot is not pending
  EXPECT_EQ(Versioned(ppa, kMaxReadVersion), (Seen{{9, 5}}));

  // Freeze: `slot` pending at ⊥ (Help reaches it), `versioned` holding a
  // version, `idle` idle.
  ppa.Clear(slot);
  const std::size_t versioned = (slot + 1) % kMaxThreads;
  const std::size_t idle = (slot + 2) % kMaxThreads;
  ASSERT_TRUE(ppa.Publish(versioned, 9));
  ASSERT_EQ(ppa.TakeVersion(versioned, 9, 5, &helped), 5u);
  ASSERT_TRUE(ppa.Publish(slot, 7));
  EXPECT_EQ(ppa.Freeze(), 0u);
  ppa.Help(gv, accept);  // a frozen slot is not pending either
  EXPECT_EQ(Versioned(ppa, kMaxReadVersion), (Seen{{9, 5}}));
  EXPECT_EQ(ppa.TakeVersion(slot, 7, 6, &helped), kNoVersion);
  EXPECT_FALSE(helped);
  EXPECT_FALSE(ppa.Publish(idle, 4));
  // The skipped slot is publishable again once its owner clears it, which
  // is why InstallEntry re-reads the chunk status before publishing.
  ppa.Clear(versioned);
  EXPECT_EQ(Versioned(ppa, kMaxReadVersion), Seen{});
  EXPECT_TRUE(ppa.Publish(versioned, 4));
}

// The widest version a read may bound by and the last cell a chunk may
// hold come back out of the packed word unchanged.
TEST(PendingPuts, WideVersionAndLastCellRoundTrip) {
  PendingPuts ppa;
  const std::uint32_t last = PendingPuts::kNoCell - 1;
  ASSERT_TRUE(ppa.Publish(0, last));
  bool helped = true;
  EXPECT_EQ(ppa.TakeVersion(0, last, kMaxReadVersion, &helped),
            kMaxReadVersion);
  EXPECT_FALSE(helped);
  EXPECT_EQ(Versioned(ppa, kMaxReadVersion), (Seen{{last, kMaxReadVersion}}));
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
  EXPECT_EQ(chunk.BatchedPredecessorProbe(5), 0);     // sentinel
  EXPECT_EQ(chunk.BatchedPredecessorProbe(10), 0);    // strict: 10 not < 10
  EXPECT_EQ(chunk.BatchedPredecessorProbe(11), 1);
  EXPECT_EQ(chunk.BatchedPredecessorProbe(100), 9);
  EXPECT_EQ(chunk.BatchedPredecessorProbe(10000), 16);
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

// Publishes `cell` in `slot` and installs `version`, as a put does.
void PublishVersioned(Chunk& chunk, std::size_t slot, std::uint32_t cell,
                      Version version) {
  bool helped = true;
  ASSERT_TRUE(chunk.ppa.Publish(slot, cell));
  ASSERT_EQ(chunk.ppa.TakeVersion(slot, cell, version, &helped), version);
  ASSERT_FALSE(helped);
}

TEST(ChunkPpa, PendingPutVisibleThroughFindLatest) {
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  // Simulate the put protocol up to version acquisition: value + cell.
  chunk.v[0] = 4242;
  chunk.k[1].key = 77;
  chunk.k[1].val_ptr.store(0);
  PublishVersioned(chunk, ThreadRegistry::CurrentSlot(), 1, 9);
  const auto latest = chunk.FindLatest(77, kMaxReadVersion);
  ASSERT_TRUE(latest.found);
  EXPECT_EQ(latest.value, 4242);
  EXPECT_EQ(latest.version, 9u);
  // Bounded read below the pending version misses it.
  EXPECT_FALSE(chunk.FindLatest(77, 8).found);
}

TEST(ChunkPpa, VersionlessEntryIgnoredByReadsButHelped) {
  GlobalVersion gv;
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  chunk.v[0] = 1;
  chunk.k[1].key = 55;
  chunk.k[1].val_ptr.store(0);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  ASSERT_TRUE(chunk.ppa.Publish(slot, 1));
  // Unversioned pending puts are invisible (they ordered after us)...
  EXPECT_FALSE(chunk.FindLatest(55, kMaxReadVersion).found);
  // ...until helping installs the current GV, which the owner adopts.
  chunk.HelpPendingPuts(gv, 0, 100);
  EXPECT_TRUE(chunk.FindLatest(55, kMaxReadVersion).found);
  bool helped = false;
  EXPECT_EQ(chunk.ppa.TakeVersion(slot, 1, gv.Load() + 1, &helped), gv.Load());
  EXPECT_TRUE(helped);
}

TEST(ChunkPpa, HelpRespectsKeyRange) {
  GlobalVersion gv;
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  chunk.k[1].key = 500;
  chunk.k[1].val_ptr.store(0);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  ASSERT_TRUE(chunk.ppa.Publish(slot, 1));
  chunk.HelpPendingPuts(gv, 0, 100);  // range misses key 500
  bool helped = true;
  EXPECT_EQ(chunk.ppa.TakeVersion(slot, 1, 7, &helped), 7u);
  EXPECT_FALSE(helped) << "the slot must still be pending";
}

// Both PPA loops take [from, *to]: the lower bound always holds, the upper
// bound applies exactly when given and not at all when `to` is null.
TEST(ChunkPpa, RangeLoopsKeepFromAndApplyOptionalTo) {
  GlobalVersion gv;
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  // Cells 1-4: below the range, on each bound, above the range.
  const Key keys[] = {10, 20, 30, 40};
  for (std::uint32_t i = 0; i < 4; ++i) {
    chunk.v[i] = keys[i];
    chunk.k[i + 1].key = keys[i];
    chunk.k[i + 1].val_ptr.store(static_cast<std::int32_t>(i));
  }
  const Key from = 20;
  const Key to = 30;
  const std::size_t slot = ThreadRegistry::CurrentSlot();

  // Versioned entries, one slot each.
  for (std::uint32_t i = 0; i < 4; ++i) {
    PublishVersioned(chunk, (slot + i) % kMaxThreads, i + 1, 5);
  }
  const auto collected = [&](const Key* upper) {
    std::vector<Item> items;
    chunk.CollectPpaItems(items, from, upper, kMaxReadVersion);
    std::vector<Key> got;
    for (const Item& item : items) got.push_back(item.key);
    std::sort(got.begin(), got.end());
    return got;
  };
  EXPECT_EQ(collected(&to), (std::vector<Key>{20, 30}));
  EXPECT_EQ(collected(nullptr), (std::vector<Key>{20, 30, 40}));
  for (std::uint32_t i = 0; i < 4; ++i) {
    chunk.ppa.Clear((slot + i) % kMaxThreads);
  }

  // Pending entries.  HelpPendingPuts scans slots up to the registry's
  // high-water mark, so each entry takes this thread's slot in turn; the
  // owner's take-version then reports whether help versioned it.
  const auto helped = [&](std::uint32_t cell, const Key* upper) {
    EXPECT_TRUE(chunk.ppa.Publish(slot, cell));
    chunk.HelpPendingPuts(gv, from, upper);
    bool versioned = false;
    chunk.ppa.TakeVersion(slot, cell, gv.Load() + 1, &versioned);
    chunk.ppa.Clear(slot);
    return versioned;
  };
  const bool in_bounded[] = {false, true, true, false};
  const bool in_unbounded[] = {false, true, true, true};
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(helped(i + 1, &to), in_bounded[i]) << keys[i];
    EXPECT_EQ(helped(i + 1, nullptr), in_unbounded[i]) << keys[i];
  }
}

TEST(ChunkPpa, FreezeBlocksVersionlessEntries) {
  ChunkPtr chunk_owner = MakeChunkWith({});
  Chunk& chunk = *chunk_owner;
  chunk.v[0] = 1212;
  chunk.k[4].key = 40;
  chunk.k[4].val_ptr.store(0);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  // One versionless pending put and one already-versioned entry.
  ASSERT_TRUE(chunk.ppa.Publish(slot, 3));
  PublishVersioned(chunk, (slot + 1) % kMaxThreads, 4, 12);
  chunk.ppa.Freeze();
  // The put's version CAS (⊥ -> gv) now fails; the harvest still gets the
  // versioned entry.
  bool helped = true;
  EXPECT_EQ(chunk.ppa.TakeVersion(slot, 3, 1, &helped), kNoVersion);
  EXPECT_FALSE(helped);
  std::vector<Item> harvest;
  chunk.CollectPpaItems(harvest, kMinUserKey, nullptr, kMaxReadVersion);
  ASSERT_EQ(harvest.size(), 1u);
  EXPECT_EQ(harvest[0].key, 40);
  EXPECT_EQ(harvest[0].version, 12u);
  EXPECT_EQ(harvest[0].value, 1212);
}

TEST(ChunkHarvest, CollectMergesListAndPpa) {
  std::vector<Item> items{{10, 2, 0, 100}, {20, 2, 1, 200}};
  ChunkPtr chunk_owner = MakeChunkWith(items);
  Chunk& chunk = *chunk_owner;
  // A versioned pending put for a new key 15.
  chunk.v[2] = 150;
  chunk.k[3].key = 15;
  chunk.k[3].val_ptr.store(2);
  PublishVersioned(chunk, ThreadRegistry::CurrentSlot(), 3, 5);
  std::vector<Item> harvested;
  chunk.CollectItems(harvested);
  ASSERT_EQ(harvested.size(), 3u);
  EXPECT_EQ(harvested[0].key, 10);
  EXPECT_EQ(harvested[1].key, 15);
  EXPECT_EQ(harvested[1].version, 5u);
  EXPECT_EQ(harvested[1].value, 150);
  EXPECT_EQ(harvested[2].key, 20);
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
  PublishVersioned(chunk, ThreadRegistry::CurrentSlot(), 2, 3);
  std::vector<Item> harvested;
  chunk.CollectItems(harvested);
  ASSERT_EQ(harvested.size(), 1u);
  EXPECT_EQ(harvested[0].val_ptr, 1);
  EXPECT_EQ(harvested[0].value, 222);
  // FindLatest applies the same tie break.
  const auto latest = chunk.FindLatest(50, kMaxReadVersion);
  EXPECT_EQ(latest.value, 222);
}

// The harvest contract, for either layout.  A chunk left the way puts leave
// it (a batched prefix, cells linked between and after its entries, and
// versioned PPA slots in no key order) appends to `out`, after what `out`
// already held, exactly the full sort plus {key, version} dedup of every
// item it holds.  A harvest that appended the PPA items without merging
// them into the list, or sorted what `out` held before, fails here.
template <typename Layout, typename KeyOf, typename ValueOf>
void ExpectHarvestIsSortedUnique(KeyOf key_of, ValueOf value_of) {
  using C = ChunkT<Layout>;
  using I = typename C::Item;
  std::vector<I> batched;
  for (const auto& [key, version] : std::vector<std::pair<int, Version>>{
           {10, 2}, {20, 2}, {30, 3}, {30, 1}, {40, 2}, {50, 2}}) {
    batched.push_back(I{key_of(key), version, 0, value_of(key)});
  }
  std::unique_ptr<C, decltype(&C::Destroy)> owner(
      C::Create(TestPool(), Layout::MinUserKey(), 32, nullptr,
                C::Status::kNormal, batched, Layout::kHasArena ? 2048 : 0),
      &C::Destroy);
  C& chunk = *owner;
  std::vector<I> held;  // every item the chunk holds, list and PPA
  for (std::size_t i = 0; i < batched.size(); ++i) {
    held.push_back(batched[i]);
    held.back().val_ptr = static_cast<std::int32_t>(i);
  }

  // Claims and fills the next cell and value slot, as a put does.
  const auto fill = [&](int key, Version version, int value) {
    const std::uint32_t i = chunk.k_counter.fetch_add(1);
    const std::uint32_t j = chunk.v_counter.fetch_add(1);
    const typename Layout::KeyView k = key_of(key);
    const typename Layout::ValueView v = value_of(value);
    if constexpr (Layout::kHasArena) {
      std::uint32_t off = 0;
      EXPECT_TRUE(chunk.ClaimArena(
          static_cast<std::uint32_t>(k.size() + v.size()), &off));
      std::memcpy(chunk.a + off, k.data(), k.size());
      std::memcpy(chunk.a + off + k.size(), v.data(), v.size());
      chunk.k[i].key = typename Layout::CellKey{
          Layout::MakePrefix(k), off, static_cast<std::uint32_t>(k.size())};
      chunk.v[j] = typename Layout::StoredValue{
          static_cast<std::uint32_t>(off + k.size()),
          static_cast<std::uint32_t>(v.size())};
    } else {
      chunk.k[i].key = k;
      chunk.v[j] = v;
    }
    chunk.k[i].version = version;
    chunk.k[i].val_ptr.store(static_cast<std::int32_t>(j));
    held.push_back(I{k, version, static_cast<std::int32_t>(j), v});
    return static_cast<std::int32_t>(i);
  };
  // Links a filled cell at its place in the list, as a put does.
  const auto link = [&](std::int32_t cell) {
    std::int32_t pred = C::kNullIdx;
    std::int32_t succ = C::kNullIdx;
    ASSERT_EQ(chunk.FindCellFrom(C::kNullIdx,
                                 Layout::CellKeyView(chunk.a, chunk.k[cell].key),
                                 chunk.k[cell].version, &pred, &succ),
              C::kNullIdx);
    chunk.k[cell].next.store(succ);
    chunk.k[pred].next.store(cell);
  };
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  // Publishes a filled cell in the n-th slot and versions it, as a put does.
  const auto publish = [&](std::size_t n, std::int32_t cell) {
    const auto c = static_cast<std::uint32_t>(cell);
    bool helped = true;
    ASSERT_TRUE(chunk.ppa.Publish((slot + n) % kMaxThreads, c));
    ASSERT_EQ(chunk.ppa.TakeVersion((slot + n) % kMaxThreads, c,
                                    chunk.k[cell].version, &helped),
              chunk.k[cell].version);
  };

  // The linked suffix, interleaved with the prefix, linked out of order.
  link(fill(45, 6, 45));
  link(fill(15, 5, 15));
  link(fill(60, 6, 60));
  link(fill(30, 9, 30));
  const std::int32_t linked_25 = fill(25, 5, 25);
  link(linked_25);
  // PPA slots in descending key order.
  publish(0, fill(45, 11, 451));  // a newer version of a linked key
  publish(1, fill(35, 7, 35));    // a key absent from the list
  publish(2, linked_25);          // an exact duplicate of a linked cell
  held.push_back(I{key_of(25), 5, chunk.k[linked_25].val_ptr.load(),
                   value_of(25)});
  publish(3, fill(20, 2, 201));   // ties {20, v2} with a larger val_ptr

  std::vector<I> out{I{key_of(90), 1, 0, value_of(90)},
                     I{key_of(80), 1, 1, value_of(80)}};
  std::vector<I> expected = out;
  std::sort(held.begin(), held.end(), C::ItemBefore);
  held.erase(std::unique(held.begin(), held.end(),
                         [](const I& a, const I& b) {
                           return Layout::KeyEq(a.key, b.key) &&
                                  a.version == b.version;
                         }),
             held.end());
  expected.insert(expected.end(), held.begin(), held.end());
  ASSERT_EQ(expected.size(), 2u + 13u);  // 6 batched, 5 linked, 2 PPA-only

  chunk.CollectItems(out);
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].key, expected[i].key) << i;
    EXPECT_EQ(out[i].version, expected[i].version) << i;
    EXPECT_EQ(out[i].val_ptr, expected[i].val_ptr) << i;
    EXPECT_EQ(out[i].value, expected[i].value) << i;
  }
}

TEST(ChunkHarvest, Int64ListAndPpaHarvestLikeAFullSort) {
  ExpectHarvestIsSortedUnique<Int64Layout>([](int key) { return Key{key}; },
                                           [](int v) { return Value{v}; });
}

TEST(ChunkHarvest, PrefixTiedByteKeysHarvestLikeAFullSort) {
  // One series: every key ties on the 8-byte prefix "series07", so each
  // comparison falls through to the arena memcmp.
  std::deque<std::string> bytes;
  const auto key_of = [&](int key) {
    bytes.push_back("series07" + std::string(6, '0') + std::to_string(key));
    return std::string_view(bytes.back());
  };
  const auto value_of = [&](int value) {
    bytes.push_back(std::string("v").append(std::to_string(value)));
    return std::string_view(bytes.back());
  };
  ExpectHarvestIsSortedUnique<ByteLayout>(key_of, value_of);
}

TEST(ChunkGeometry, MemoryFootprintCoversTheCellArray) {
  ChunkPtr owner(Chunk::Create(TestPool(), kMinUserKey, 8, nullptr,
                               Chunk::Status::kNormal),
                 &Chunk::Destroy);
  EXPECT_GT(owner->MemoryFootprint(), 8 * sizeof(Chunk::Cell));
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

TEST(ByteChunkArena, CompareCellHasTheSignOfStringCompare) {
  // Keys that tie on their first 8 and first 16 bytes, so CompareCell goes
  // past the prefix into the bytes 8-15 word and the memcmp of the rest.
  // Each key is a cut of head + middle + tail at one of the lengths below,
  // so shorter cuts are strict prefixes of longer ones.  The middles
  // differ at both ends of bytes 8-15 in opposite directions, which only
  // a big-endian word orders right; NUL and 0xff bytes sit at each end of
  // every part.
  const std::vector<std::string> heads = {
      "ABCDEFGH", std::string(8, '\0'), std::string(8, '\xff')};
  const std::vector<std::string> middles = {
      "IJKLMNOP",
      std::string("\0\xffKLMNOP", 8),
      std::string("\xff\0KLMNOP", 8),
      std::string("IJKLMNO\0", 8),
      "IJKLMNO\xff",
      std::string("\0IJKLMN\xff", 8),
      std::string("\x80IJKLMN\x7f", 8),
      std::string(8, '\0'),
      std::string(8, '\xff')};
  const std::vector<std::string> tails = {
      "QRSTUVWX", std::string("\0QRSTUV\xff", 8), std::string(8, '\xff')};
  std::set<std::string> key_set;
  for (const std::string& head : heads) {
    for (const std::string& middle : middles) {
      for (const std::string& tail : tails) {
        const std::string full = head + middle + tail;
        for (const std::size_t len : {0, 1, 7, 8, 9, 15, 16, 17, 24}) {
          key_set.insert(full.substr(0, len));
        }
      }
    }
  }
  // Every key lives in one arena, at its own offset, as a cell would.
  std::string arena;
  std::vector<std::pair<std::string, ByteLayout::CellKey>> cells;
  for (const std::string& key : key_set) {
    cells.emplace_back(
        key, ByteLayout::CellKey{ByteLayout::MakePrefix(key),
                                 static_cast<std::uint32_t>(arena.size()),
                                 static_cast<std::uint32_t>(key.size())});
    arena += key;
  }
  const auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const auto& [cell_key, cell] : cells) {
    for (const std::string& probe_key : key_set) {
      ASSERT_EQ(sign(ByteLayout::CompareCell(
                    arena.data(), cell, ByteLayout::MakeProbe(probe_key))),
                sign(cell_key.compare(probe_key)))
          << "cell " << ::testing::PrintToString(cell_key) << " vs probe "
          << ::testing::PrintToString(probe_key);
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
