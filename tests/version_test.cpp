// Unit tests for the global version counter and the pending scan array:
// scan-side protocol, rebalance-side helping, and the sequence-number ABA
// guard (paper §3.2 and §3.3.2 stage 3).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/thread_registry.h"
#include "core/version.h"

namespace kiwi::core {
namespace {

TEST(GlobalVersion, StartsAtOneAndFetchIncrements) {
  GlobalVersion gv;
  EXPECT_EQ(gv.Load(), 1u);
  EXPECT_EQ(gv.FetchIncrement(), 1u);
  EXPECT_EQ(gv.Load(), 2u);
}

TEST(GlobalVersion, ConcurrentIncrementsAreUnique) {
  GlobalVersion gv;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::vector<Version>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) seen[t].push_back(gv.FetchIncrement());
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<Version> all;
  for (auto& versions : seen) all.insert(all.end(), versions.begin(), versions.end());
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  EXPECT_EQ(all.back(), kThreads * kPerThread);
}

TEST(PsaEntry, OwnerInstallWins) {
  PsaEntry entry;
  const std::uint64_t seq = entry.PublishPending(10, 20);
  EXPECT_EQ(entry.Load().ver, kPendingVersion);
  EXPECT_EQ(entry.From(), 10);
  EXPECT_EQ(entry.To(), 20);
  EXPECT_EQ(entry.InstallOwn(seq, 7), 7u);
  EXPECT_EQ(entry.Load().ver, 7u);
  entry.Clear(seq);
  EXPECT_EQ(entry.Load().ver, kNoVersion);
}

TEST(PsaEntry, HelperInstallAdopted) {
  PsaEntry entry;
  const std::uint64_t seq = entry.PublishPending(0, 100);
  // A rebalance helps before the scan's own CAS.
  EXPECT_TRUE(entry.HelpInstall(seq, 42));
  // The owner's install fails but adopts the helper's version.
  EXPECT_EQ(entry.InstallOwn(seq, 99), 42u);
  entry.Clear(seq);
}

TEST(PsaEntry, StaleHelperCannotTouchNewerScan) {
  PsaEntry entry;
  const std::uint64_t old_seq = entry.PublishPending(0, 10);
  EXPECT_EQ(entry.InstallOwn(old_seq, 5), 5u);
  entry.Clear(old_seq);
  // Second scan by the same thread.
  const std::uint64_t new_seq = entry.PublishPending(0, 10);
  EXPECT_NE(new_seq, old_seq);
  // A helper that stalled since the first scan: its CAS carries the old
  // sequence number and must fail (the paper's ABA guard).
  EXPECT_FALSE(entry.HelpInstall(old_seq, 3));
  EXPECT_EQ(entry.Load().ver, kPendingVersion);
  EXPECT_EQ(entry.InstallOwn(new_seq, 6), 6u);
  entry.Clear(new_seq);
}

TEST(PsaEntry, SequenceNumbersIncrease) {
  PsaEntry entry;
  std::uint64_t previous = 0;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t seq = entry.PublishPending(0, 1);
    EXPECT_GT(seq, previous);
    previous = seq;
    entry.InstallOwn(seq, i + 1);
    entry.Clear(seq);
  }
}

// Scans and helpers race on one entry; whatever version the entry ends up
// holding must be one of the candidates, never a mix.
TEST(PsaEntry, ConcurrentHelpersAgree) {
  GlobalVersion gv;
  PsaEntry entry;
  for (int round = 0; round < 2000; ++round) {
    const std::uint64_t seq = entry.PublishPending(0, 1000);
    std::atomic<Version> helper_installed{0};
    std::thread helper([&] {
      const Version version = gv.FetchIncrement();
      if (entry.HelpInstall(seq, version)) {
        helper_installed.store(version);
      }
    });
    const Version own = gv.FetchIncrement();
    const Version adopted = entry.InstallOwn(seq, own);
    helper.join();
    const Version by_helper = helper_installed.load();
    if (by_helper != 0) {
      EXPECT_EQ(adopted, by_helper);
    } else {
      EXPECT_EQ(adopted, own);
    }
    entry.Clear(seq);
  }
}

TEST(PsaArray, SlotsIndependent) {
  Psa psa;
  const std::uint64_t seq0 = psa.Slot(0).PublishPending(1, 2);
  const std::uint64_t seq1 = psa.Slot(1).PublishPending(3, 4);
  psa.Slot(0).InstallOwn(seq0, 11);
  EXPECT_EQ(psa.Slot(1).Load().ver, kPendingVersion);
  psa.Slot(1).InstallOwn(seq1, 12);
  EXPECT_EQ(psa.Slot(0).Load().ver, 11u);
  EXPECT_EQ(psa.Slot(1).Load().ver, 12u);
  psa.Slot(0).Clear(seq0);
  psa.Slot(1).Clear(seq1);
}

// A Snapshot slot passes from holder to holder, but its entry's sequence
// counter does not restart: a helper that read the previous holder's
// pending entry and stalled cannot install into the next holder's.
TEST(PsaArray, StaleHelperCannotTouchReclaimedSlot) {
  SlotAllocator<4> slots;
  PsaT<Key, 4> psa;
  std::size_t first_slot = 0;
  std::uint64_t stale_seq = 0;
  std::thread([&] {
    first_slot = slots.Acquire();
    PsaEntry& entry = psa.Slot(first_slot);
    const std::uint64_t seq = entry.PublishPending(0, 10);
    stale_seq = entry.Load().seq;  // what the helper read before stalling
    EXPECT_EQ(entry.InstallOwn(seq, 5), 5u);
    entry.Clear(seq);
    slots.Release(first_slot);
  }).join();
  std::thread([&] {
    const std::size_t slot = slots.Acquire();
    ASSERT_EQ(slot, first_slot);
    PsaEntry& entry = psa.Slot(slot);
    const std::uint64_t seq = entry.PublishPending(0, 10);
    EXPECT_GT(seq, stale_seq);
    EXPECT_FALSE(entry.HelpInstall(stale_seq, 3));
    EXPECT_EQ(entry.Load().ver, kPendingVersion);
    EXPECT_EQ(entry.InstallOwn(seq, 6), 6u);
    entry.Clear(seq);
    slots.Release(slot);
  }).join();
}

TEST(PsaEntry, LockFreedomReported) {
  // Informational: on x86-64 with -mcx16 this should be lock-free; the
  // protocol is correct either way, so only log the outcome.
  RecordProperty("psa_pair_lock_free", PsaPairIsLockFree() ? "yes" : "no");
  SUCCEED();
}

}  // namespace
}  // namespace kiwi::core
