// Unit tests for the common substrate: RNG, marked pointers, thread
// registry, spin barrier, backoff.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/barrier.h"
#include "common/config.h"
#include "common/marked_ptr.h"
#include "common/random.h"
#include "common/thread_registry.h"

namespace kiwi {
namespace {

TEST(Random, DeterministicForSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Random, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(Random, BoundedStaysInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Random, BoundedRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr std::uint64_t kBuckets = 8;
  constexpr int kSamples = 80000;
  int histogram[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++histogram[rng.NextBounded(kBuckets)];
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(histogram[b], kSamples / kBuckets, kSamples / 50.0);
  }
}

TEST(Random, DoubleInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, BernoulliMatchesProbability) {
  Xoshiro256 rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.NextBool(0.15);
  EXPECT_NEAR(hits, 15000, 1200);
}

TEST(MarkedPtr, PackAndUnpack) {
  int value = 42;
  MarkedPtr<int> unmarked(&value, false);
  EXPECT_EQ(unmarked.Ptr(), &value);
  EXPECT_FALSE(unmarked.Mark());
  MarkedPtr<int> marked(&value, true);
  EXPECT_EQ(marked.Ptr(), &value);
  EXPECT_TRUE(marked.Mark());
  EXPECT_FALSE(unmarked == marked);
}

TEST(MarkedPtr, NullWorks) {
  MarkedPtr<int> null(nullptr, false);
  EXPECT_EQ(null.Ptr(), nullptr);
  MarkedPtr<int> marked_null(nullptr, true);
  EXPECT_EQ(marked_null.Ptr(), nullptr);
  EXPECT_TRUE(marked_null.Mark());
}

TEST(MarkedPtr, AtomicCasRespectsMark) {
  int a = 1, b = 2;
  AtomicMarkedPtr<int> slot(&a);
  // CAS expecting unmarked succeeds...
  EXPECT_TRUE(slot.CompareExchange(MarkedPtr<int>(&a, false),
                                   MarkedPtr<int>(&a, true)));
  // ...and now expecting unmarked fails because the mark is set.
  EXPECT_FALSE(slot.CompareExchange(MarkedPtr<int>(&a, false),
                                    MarkedPtr<int>(&b, false)));
  EXPECT_TRUE(slot.Load().Mark());
  EXPECT_EQ(slot.Load().Ptr(), &a);
}

TEST(ThreadRegistry, StableWithinThread) {
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  EXPECT_EQ(ThreadRegistry::CurrentSlot(), slot);
  EXPECT_TRUE(ThreadRegistry::IsRegistered());
  EXPECT_LT(slot, kMaxThreads);
}

TEST(ThreadRegistry, DistinctAcrossLiveThreads) {
  constexpr int kThreads = 8;
  std::vector<std::size_t> slots(kThreads);
  std::vector<std::thread> threads;
  SpinBarrier barrier(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      slots[t] = ThreadRegistry::CurrentSlot();
      barrier.ArriveAndWait();  // hold all slots live simultaneously
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::size_t> unique(slots.begin(), slots.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads));
}

TEST(ThreadRegistry, SlotsRecycledAfterExit) {
  std::size_t first = 0;
  std::thread([&] { first = ThreadRegistry::CurrentSlot(); }).join();
  std::size_t second = 0;
  std::thread([&] { second = ThreadRegistry::CurrentSlot(); }).join();
  EXPECT_EQ(first, second);  // the exited thread's slot is reused
}

// The allocator behind thread slots and Snapshot slots.
TEST(SlotAllocator, ReusesLowestFreeReportsExhaustionHighWaterOnlyRises) {
  SlotAllocator<3> slots;
  EXPECT_EQ(slots.HighWater(), 0u);
  EXPECT_EQ(slots.Acquire(), 0u);
  EXPECT_EQ(slots.Acquire(), 1u);
  EXPECT_EQ(slots.Acquire(), 2u);
  EXPECT_EQ(slots.HighWater(), 3u);
  EXPECT_EQ(slots.Acquire(), 3u) << "exhaustion returns N";
  slots.Release(1);
  slots.Release(2);
  EXPECT_EQ(slots.Acquire(), 1u) << "the lowest free slot is reused";
  slots.Release(0);
  slots.Release(1);
  EXPECT_EQ(slots.HighWater(), 3u) << "releases never lower the mark";
  EXPECT_EQ(slots.Acquire(), 0u);
  EXPECT_EQ(slots.HighWater(), 3u);
}

TEST(SpinBarrier, ReleasesAllParties) {
  constexpr int kThreads = 6;
  SpinBarrier barrier(kThreads);
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      before.fetch_add(1);
      barrier.ArriveAndWait();
      EXPECT_EQ(before.load(), kThreads);  // nobody passes early
      after.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(after.load(), kThreads);
}

TEST(SpinBarrier, Reusable) {
  constexpr int kThreads = 4;
  SpinBarrier barrier(kThreads);
  std::atomic<int> round_sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        barrier.ArriveAndWait();
        round_sum.fetch_add(1);
        barrier.ArriveAndWait();
        EXPECT_EQ(round_sum.load() % kThreads, 0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(round_sum.load(), kThreads * 10);
}

TEST(Config, DomainConstantsConsistent) {
  EXPECT_LT(kMinKeySentinel, kMinUserKey);
  EXPECT_LT(kMinUserKey, kMaxUserKey);
  EXPECT_EQ(kTombstoneValue, std::numeric_limits<Value>::min());
}

}  // namespace
}  // namespace kiwi
