// White-box tests for KiWi's rebalance machinery: drives the rare races
// directly through internal state instead of hoping a scheduler produces
// them — the orphaned-engagement recovery, frozen-chunk put restarts, and
// the chunk life-cycle (infant -> normal -> frozen).
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/thread_registry.h"
#include "core/kiwi_map.h"
#include "reclaim/ebr.h"

namespace kiwi::core {

// Friend of KiWiMap (declared in kiwi_map.h): exposes internals to tests.
class KiWiTestPeer {
 public:
  explicit KiWiTestPeer(KiWiMap& map) : map_(map) {}

  Chunk* Sentinel() { return map_.sentinel_; }

  Chunk* Locate(Key key) {
    reclaim::EbrGuard guard(map_.ebr_);
    return map_.LocateChunk(key);
  }

  reclaim::Ebr& Ebr() { return map_.ebr_; }

  /// The shared claim-and-install of Put and PutBatch's short runs for
  /// `run` (sorted, distinct keys) in the chunk covering its first key,
  /// from this thread's PPA slot.
  std::size_t InstallRun(std::span<const Chunk::Item> run) {
    reclaim::EbrGuard guard(map_.ebr_);
    return map_.InstallRun(map_.LocateChunk(run.front().key), run,
                           ThreadRegistry::CurrentSlot(), /*traced=*/false);
  }

  std::vector<Chunk::Status> Statuses() {
    reclaim::EbrGuard guard(map_.ebr_);
    std::vector<Chunk::Status> statuses;
    for (Chunk* c = map_.sentinel_; c != nullptr; c = c->Next()) {
      statuses.push_back(c->status.load(std::memory_order_acquire));
    }
    return statuses;
  }

  /// Manufacture the orphaned-engagement state on the chunk covering `key`:
  /// a *finished* rebalance object attached to a still-reachable chunk
  /// (DESIGN.md §2 deviation 7).  Freezes the chunk like the racing helper
  /// would have.
  void MakeOrphan(Key key) {
    reclaim::EbrGuard guard(map_.ebr_);
    Chunk* chunk = map_.LocateChunk(key);
    ASSERT_EQ(chunk->ro.load(std::memory_order_acquire), nullptr)
        << "test requires a chunk not already engaged";
    auto* ro = RebalanceObject::Create(map_.pool_, chunk, chunk->Next());
    // A finished rebalance: replacement agreed and splice done.
    ro->next.store(nullptr, std::memory_order_release);
    ro->replacement.store(chunk, std::memory_order_release);  // arbitrary
    ro->done.store(true, std::memory_order_release);
    // The chunk's `ro` pointer owns the object's initial reference; the
    // recovery path (or the chunk's destructor) releases it.
    chunk->ro.store(ro, std::memory_order_release);
    chunk->status.store(Chunk::Status::kFrozen, std::memory_order_release);
    chunk->ppa.Freeze();
  }

 private:
  KiWiMap& map_;
};

namespace {

TEST(KiWiWhitebox, ChunkLifecycleAfterLoad) {
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  for (Key k = 0; k < 2000; ++k) map.Put(k, k);
  KiWiTestPeer peer(map);
  const auto statuses = peer.Statuses();
  ASSERT_GT(statuses.size(), 2u);
  EXPECT_EQ(statuses.front(), Chunk::Status::kSentinel);
  // Quiescent map: every data chunk has been normalized (no stuck infants
  // or frozen chunks left in the list).
  for (std::size_t i = 1; i < statuses.size(); ++i) {
    EXPECT_EQ(statuses[i], Chunk::Status::kNormal) << "chunk " << i;
  }
}

TEST(KiWiWhitebox, SentinelNeverEngagedOrReplaced) {
  KiWiConfig config;
  config.chunk_capacity = 16;
  KiWiMap map(config);
  KiWiTestPeer peer(map);
  Chunk* sentinel_before = peer.Sentinel();
  for (Key k = 0; k < 5000; ++k) map.Put(k, k);
  map.CompactAll();
  EXPECT_EQ(peer.Sentinel(), sentinel_before);
  EXPECT_EQ(peer.Sentinel()->status.load(), Chunk::Status::kSentinel);
  EXPECT_EQ(peer.Sentinel()->ro.load(), nullptr);
}

TEST(KiWiWhitebox, LocateFollowsListPastStaleIndex) {
  KiWiConfig config;
  config.chunk_capacity = 16;
  KiWiMap map(config);
  for (Key k = 0; k < 1000; ++k) map.Put(k, k);
  KiWiTestPeer peer(map);
  // Whatever the index returns, Locate must land on the covering chunk.
  for (Key k = 0; k < 1000; k += 37) {
    Chunk* chunk = peer.Locate(k);
    ASSERT_NE(chunk, nullptr);
    EXPECT_LE(chunk->min_key, k);
    Chunk* next = chunk->Next();
    if (next != nullptr) {
      EXPECT_GT(next->min_key, k);
    }
  }
}

TEST(KiWiWhitebox, OrphanedEngagementRecovers) {
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  for (Key k = 0; k < 50; ++k) map.Put(k, k);

  KiWiTestPeer peer(map);
  peer.MakeOrphan(25);

  // The chunk is frozen with a finished ro: without recovery this put would
  // restart forever (the paper's engagement race, DESIGN.md §2.7).
  map.Put(25, 999);
  EXPECT_EQ(map.Get(25).value_or(-1), 999);

  // No data lost through the recovery rebalance, and the list healed.
  for (Key k = 0; k < 50; ++k) {
    if (k == 25) continue;
    ASSERT_EQ(map.Get(k).value_or(-1), k) << k;
  }
  map.CheckInvariants();
  const auto statuses = peer.Statuses();
  for (std::size_t i = 1; i < statuses.size(); ++i) {
    EXPECT_EQ(statuses[i], Chunk::Status::kNormal);
  }
}

TEST(KiWiWhitebox, OrphanRecoveryUnderGets) {
  // Gets must keep answering from the frozen orphan until it is replaced.
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  for (Key k = 0; k < 50; ++k) map.Put(k, k);
  KiWiTestPeer peer(map);
  peer.MakeOrphan(0);
  // Reads against the frozen chunk still work (wait-free reads never care
  // about chunk status)...
  for (Key k = 0; k < 50; ++k) ASSERT_EQ(map.Get(k).value_or(-1), k);
  // ...and a write triggers recovery.
  map.Put(7, 777);
  EXPECT_EQ(map.Get(7).value_or(-1), 777);
  map.CheckInvariants();
}

TEST(KiWiWhitebox, ScanThroughFrozenOrphan) {
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  for (Key k = 0; k < 50; ++k) map.Put(k, k);
  KiWiTestPeer peer(map);
  peer.MakeOrphan(25);
  std::vector<KiWiMap::Entry> out;
  ASSERT_EQ(map.Scan(0, 49, out), 50u);
  for (Key k = 0; k < 50; ++k) EXPECT_EQ(out[k].second, k);
}

// A freeze changes only unversioned slots, so one that lands while a
// per-op batch run's entry holds a version skips that thread's slot.  Once
// the entry releases the slot, the run's next publish from idle succeeds;
// unless the run re-reads the chunk status first, that entry links into a
// chunk the rebalance already harvested, and PutBatch reports a write that
// is gone (a lost update the fuzzer found with --batch-pct).
TEST(KiWiWhitebox, PerOpRunStopsAtFreezeThatSkippedItsSlot) {
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  for (Key k = 0; k < 10; ++k) map.Put(k, k);
  KiWiTestPeer peer(map);
  Chunk* chunk = peer.Locate(100);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  const auto versioned = [chunk] {
    std::size_t n = 0;
    chunk->ppa.ForEachVersioned(kMaxThreads, kMaxReadVersion,
                                [&n](std::uint32_t, Version) { ++n; });
    return n;
  };

  // The run's previous entry holds a version when the chunk freezes...
  bool helped = true;
  ASSERT_TRUE(chunk->ppa.Publish(slot, 1));
  ASSERT_EQ(chunk->ppa.TakeVersion(slot, 1, 1, &helped), 1u);
  chunk->status.store(Chunk::Status::kFrozen);
  chunk->ppa.Freeze();
  ASSERT_EQ(versioned(), 1u) << "the freeze must skip a versioned slot";
  // ...then links and releases the slot.
  chunk->ppa.Clear(slot);

  // The next entries must notice the freeze: nothing installed or linked.
  const std::vector<Chunk::Item> run{{100, kNoVersion, 0, 1000},
                                     {101, kNoVersion, 0, 1010}};
  EXPECT_EQ(peer.InstallRun(run), 0u);
  EXPECT_FALSE(chunk->FindLatest(100, kMaxReadVersion).found);
  EXPECT_FALSE(chunk->FindLatest(101, kMaxReadVersion).found);

  // The public batch lands through the rebalance of the frozen chunk.
  map.PutBatch(std::vector<KiWiMap::Entry>{{100, 1000}, {101, 1010}});
  EXPECT_EQ(map.Get(100).value_or(-1), 1000);
  EXPECT_EQ(map.Get(101).value_or(-1), 1010);
  for (Key k = 0; k < 10; ++k) ASSERT_EQ(map.Get(k).value_or(-1), k) << k;
  map.CheckInvariants();
}

// The claim alone decides whether an entry fits: with every value slot
// handed out, InstallRun installs nothing and counts the short claim once.
// The put that follows lands through the rebalance it triggers.
TEST(KiWiWhitebox, ShortClaimInstallsNothingAndCountsOneOverflow) {
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  for (Key k = 0; k < 10; ++k) map.Put(k, k);
  KiWiTestPeer peer(map);
  Chunk* chunk = peer.Locate(100);
  chunk->v_counter.store(chunk->capacity);

  const std::uint64_t before =
      map.DebugReport().counters.cell_alloc_overflows;
  const std::vector<Chunk::Item> run{{100, kNoVersion, 0, 1000}};
  EXPECT_EQ(peer.InstallRun(run), 0u);
  EXPECT_FALSE(chunk->FindLatest(100, kMaxReadVersion).found);
  const auto report = map.DebugReport();
  if (report.stats_enabled) {
    EXPECT_EQ(report.counters.cell_alloc_overflows, before + 1);
  }

  map.Put(100, 1000);
  EXPECT_EQ(map.Get(100).value_or(-1), 1000);
  for (Key k = 0; k < 10; ++k) ASSERT_EQ(map.Get(k).value_or(-1), k) << k;
  map.CheckInvariants();
}

// A chunk covers [minKey, succ.minKey): LocateChunk and PutBatch's run
// split both send the successor's min key to the successor, so a cell
// holding that key in the chunk before it breaks the structure.
TEST(KiWiWhiteboxDeathTest, CellAtSuccessorMinKeyFailsInvariants) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KiWiConfig config;
  config.chunk_capacity = 64;
  KiWiMap map(config);
  for (Key k = 0; k < 500; ++k) map.Put(k, k);
  map.CheckInvariants();
  KiWiTestPeer peer(map);
  Chunk* chunk = peer.Sentinel()->Next();
  while (chunk->Next() != nullptr &&
         chunk->AllocatedCells() == chunk->capacity) {
    chunk = chunk->Next();
  }
  const Chunk* succ = chunk->Next();
  ASSERT_NE(succ, nullptr) << "test needs a chunk with room and a successor";

  // Claim, fill and link one cell at its place, as a put would.
  const std::uint32_t i = chunk->k_counter.fetch_add(1);
  const std::uint32_t j = chunk->v_counter.fetch_add(1);
  ASSERT_LE(i, chunk->capacity);
  ASSERT_LT(j, chunk->capacity);
  chunk->k[i].key = succ->min_key;
  chunk->k[i].version = 1;
  chunk->v[j] = 7;
  chunk->k[i].val_ptr.store(static_cast<std::int32_t>(j));
  std::int32_t pred = Chunk::kNullIdx;
  std::int32_t next = Chunk::kNullIdx;
  ASSERT_EQ(chunk->FindCellFrom(Chunk::kNullIdx, succ->min_key, 1, &pred,
                                &next),
            Chunk::kNullIdx);
  chunk->k[i].next.store(next);
  chunk->k[pred].next.store(static_cast<std::int32_t>(i));
  EXPECT_DEATH(map.CheckInvariants(), "cell above chunk range");
}

TEST(KiWiWhitebox, ReclamationKeepsFrozenChunksForReaders) {
  KiWiConfig config;
  config.chunk_capacity = 16;
  KiWiMap map(config);
  KiWiTestPeer peer(map);
  for (Key k = 0; k < 500; ++k) map.Put(k, k);
  // Hold a guard (simulating a slow reader) and churn rebalances: pending
  // reclamation must accumulate instead of freeing under the reader.
  {
    reclaim::EbrGuard reader(peer.Ebr());
    const std::size_t before = peer.Ebr().PendingCount();
    for (Key k = 0; k < 500; ++k) map.Put(k, k + 1);
    map.CompactAll();
    EXPECT_GT(peer.Ebr().PendingCount(), before);
  }
  map.DrainReclamation();
  EXPECT_EQ(peer.Ebr().PendingCount(), 0u);
}

}  // namespace
}  // namespace kiwi::core
