// Race-window widening tests: install TestHooks at the paper's named race
// points and verify the protocols hold when the narrow windows are forced
// wide open.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/test_env.h"
#include "common/test_hooks.h"
#include "core/kiwi_map.h"

namespace kiwi::core {
namespace {

void YieldHook(TestHooks::Site) { std::this_thread::yield(); }

// A scan of all `keys` keys while one writer sweeps them in rounds: every
// key present, values non-increasing by key, at most one round apart.
void ExpectUntornScan(const std::vector<KiWiMap::Entry>& out, Key keys) {
  ASSERT_EQ(out.size(), static_cast<std::size_t>(keys));
  Value previous = out.front().second;
  for (const auto& [key, value] : out) {
    ASSERT_LE(value, previous) << "torn scan with stalled puts";
    previous = value;
  }
  ASSERT_LE(out.front().second - out.back().second, 1);
}

// Widen the window between a put's PPA publication and its version CAS:
// every concurrent scan/get must help (paper Figure 2), and order must stay
// consistent — through Scan, ScanFrom and a Snapshot's Scan alike.  The
// helping path is asserted via the puts_helped stat.
TEST(RaceInjection, ScansHelpStalledPuts) {
  TestHooks::Scoped install(TestHooks::kPutBeforeVersionCas, YieldHook);
  constexpr Key kKeys = 64;
  KiWiConfig config;
  config.chunk_capacity = 128;
  KiWiMap map(config);
  for (Key k = 0; k < kKeys; ++k) map.Put(k, 0);

  std::atomic<bool> stop{false};
  std::atomic<Value> rounds{0};
  std::thread writer([&] {
    for (Value round = 1; !stop.load(std::memory_order_acquire); ++round) {
      for (Key k = 0; k < kKeys; ++k) map.Put(k, round);
      rounds.store(round, std::memory_order_release);
    }
  });
  std::vector<KiWiMap::Entry> out;
  const int iters = ScaledIters(400);
  for (int i = 0; i < iters || rounds.load(std::memory_order_acquire) < 3;
       ++i) {
    map.Scan(0, kKeys - 1, out);
    ASSERT_NO_FATAL_FAILURE(ExpectUntornScan(out, kKeys));
    out.clear();
    map.ScanFrom(0, [&out](Key k, Value v) { out.emplace_back(k, v); });
    ASSERT_NO_FATAL_FAILURE(ExpectUntornScan(out, kKeys));
    KiWiMap::Snapshot snapshot(map);
    snapshot.Scan(0, kKeys - 1, out);
    ASSERT_NO_FATAL_FAILURE(ExpectUntornScan(out, kKeys));
  }
  stop.store(true, std::memory_order_release);
  writer.join();
#if KIWI_OBS_ENABLED
  // Counters read zero in a KIWI_STATS=OFF build.
  EXPECT_GT(map.DebugReport().counters.puts_helped, 0u)
      << "widened window but no put was ever helped by a reader";
#endif
}

// Same window against gets: a get racing the stalled put must either help
// it (and may see it) or order itself before — never deadlock or misorder
// with a later scan.  A Snapshot opened after a put returned reads it too.
TEST(RaceInjection, GetsHelpStalledPuts) {
  TestHooks::Scoped install(TestHooks::kPutBeforeVersionCas, YieldHook);
  KiWiMap map;
  std::atomic<bool> stop{false};
  std::atomic<Value> published{-1};
  std::thread writer([&] {
    const Value iters = ScaledIters(20000);
    for (Value v = 0; v < iters; ++v) {
      map.Put(5, v);
      published.store(v, std::memory_order_seq_cst);
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const Value floor = published.load(std::memory_order_seq_cst);
      if (floor < 0) continue;
      ASSERT_GE(map.Get(5).value_or(-1), floor);
      KiWiMap::Snapshot snapshot(map);
      ASSERT_GE(snapshot.Get(5).value_or(-1), floor);
    }
  });
  writer.join();
  reader.join();
#if KIWI_OBS_ENABLED
  EXPECT_GT(map.DebugReport().counters.puts_helped, 0u);
#endif
}

// Widen freeze -> build: puts landing on frozen chunks must restart (not
// lose data), reads must keep being served from the frozen chunk.
TEST(RaceInjection, FrozenChunksServeReadsAndRestartPuts) {
  TestHooks::Scoped install(TestHooks::kRebalanceAfterFreeze, YieldHook);
  KiWiConfig config;
  config.chunk_capacity = 16;  // constant rebalancing
  KiWiMap map(config);
  constexpr int kThreads = 4;
  // One scaled count drives both the per-thread key range and the final
  // size check, so KIWI_TEST_ITERS cannot desynchronize them.
  const int per_thread = ScaledIters(4000);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (Key k = 0; k < per_thread; ++k) {
        const Key key = t * static_cast<Key>(per_thread) + k;
        map.Put(key, key);
        ASSERT_EQ(map.Get(key).value_or(-1), key);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(map.Size(), 4u * static_cast<std::size_t>(per_thread));
#if KIWI_OBS_ENABLED
  EXPECT_GT(map.DebugReport().counters.put_restarts, 0u);
#endif
  map.CheckInvariants();
}

// Widen consensus -> splice: the window where old and replacement sections
// coexist.  Concurrent readers must see exactly one copy of the data.
TEST(RaceInjection, ReplaceWindowNeverDuplicatesData) {
  TestHooks::Scoped install(TestHooks::kReplaceBeforeSplice, YieldHook);
  KiWiConfig config;
  config.chunk_capacity = 32;
  KiWiMap map(config);
  for (Key k = 0; k < 500; ++k) map.Put(k, 1);
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    Xoshiro256 rng(3);
    while (!stop.load(std::memory_order_acquire)) {
      map.Put(static_cast<Key>(rng.NextBounded(500)), 1);
    }
  });
  std::vector<KiWiMap::Entry> out;
  const int iters = ScaledIters(500);
  for (int i = 0; i < iters; ++i) {
    map.Scan(0, 499, out);
    ASSERT_EQ(out.size(), 500u) << "scan lost or duplicated keys";
    Key previous = -1;
    for (const auto& [k, v] : out) {
      ASSERT_EQ(k, previous + 1) << "gap or duplicate at " << k;
      ASSERT_EQ(v, 1);
      previous = k;
    }
  }
  stop.store(true, std::memory_order_release);
  churner.join();
  map.CheckInvariants();
}

// All three hooks at once under a mixed workload (belt and braces).
TEST(RaceInjection, AllWindowsWidenedMixedWorkload) {
  TestHooks::Scoped a(TestHooks::kPutBeforeVersionCas, YieldHook);
  TestHooks::Scoped b(TestHooks::kRebalanceAfterFreeze, YieldHook);
  TestHooks::Scoped c(TestHooks::kReplaceBeforeSplice, YieldHook);
  KiWiConfig config;
  config.chunk_capacity = 24;
  KiWiMap map(config);
  constexpr int kThreads = 5;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t * 13 + 1);
      std::vector<KiWiMap::Entry> out;
      const int iters = ScaledIters(8000);
      for (int i = 0; i < iters; ++i) {
        const Key key = static_cast<Key>(rng.NextBounded(800));
        switch (rng.NextBounded(5)) {
          case 0: case 1: map.Put(key, i); break;
          case 2: map.Remove(key); break;
          case 3: map.Get(key); break;
          default: {
            map.Scan(key, key + 50, out);
            Key previous = kMinKeySentinel;
            for (const auto& [k, v] : out) {
              ASSERT_GT(k, previous);
              previous = k;
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  map.CheckInvariants();
}

}  // namespace
}  // namespace kiwi::core
