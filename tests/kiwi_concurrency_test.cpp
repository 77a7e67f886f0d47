// Concurrency tests for KiWiMap: linearizable-visibility checks, the atomic
// scan invariant the paper's analytics use case depends on, and mixed-op
// stress under forced rebalancing (tiny chunks).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/barrier.h"
#include "common/random.h"
#include "core/kiwi_map.h"

namespace kiwi::core {
namespace {

KiWiConfig TinyChunks(std::uint32_t capacity = 64) {
  KiWiConfig config;
  config.chunk_capacity = capacity;
  return config;
}

// A writer sweeps keys 0..N-1 in ascending order, stamping all of them with
// the round number.  At any instant the map holds round r on some prefix
// and r-1 on the suffix, so an ATOMIC scan must observe a non-increasing
// value sequence whose extremes differ by at most 1.  This is the
// analytics-consistency property (paper §1) in its sharpest testable form.
TEST(KiWiAtomicScan, SweepWriterInvariant) {
  constexpr Key kKeys = 256;
  constexpr int kScanners = 3;
  KiWiMap map(TinyChunks(32));
  for (Key k = 0; k < kKeys; ++k) map.Put(k, 0);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans_done{0};
  std::thread writer([&] {
    for (Value round = 1; !stop.load(std::memory_order_acquire); ++round) {
      for (Key k = 0; k < kKeys; ++k) map.Put(k, round);
    }
  });
  std::vector<std::thread> scanners;
  for (int s = 0; s < kScanners; ++s) {
    scanners.emplace_back([&] {
      std::vector<KiWiMap::Entry> out;
      while (scans_done.load(std::memory_order_relaxed) < 400) {
        map.Scan(0, kKeys - 1, out);
        ASSERT_EQ(out.size(), static_cast<std::size_t>(kKeys));
        Value previous = out.front().second;
        for (const auto& [key, value] : out) {
          ASSERT_LE(value, previous)
              << "scan saw round " << value << " after " << previous
              << " at key " << key << " — snapshot is torn";
          previous = value;
        }
        ASSERT_LE(out.front().second - out.back().second, 1)
            << "scan mixes more than two writer rounds";
        scans_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& scanner : scanners) scanner.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  map.CheckInvariants();
}

// Same invariant while the writer also deletes and re-inserts a rotating
// window, forcing tombstones through scans and rebalances.
TEST(KiWiAtomicScan, SurvivesDeletionsAndRebalance) {
  constexpr Key kKeys = 128;
  KiWiMap map(TinyChunks(16));
  for (Key k = 0; k < kKeys; ++k) map.Put(k, 0);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(5);
    for (Value round = 1; !stop.load(std::memory_order_acquire); ++round) {
      for (Key k = 0; k < kKeys; ++k) map.Put(k, round);
      // Delete and restore one random key; a scan between the two ops may
      // legitimately miss it, but values must still be consistent.
      const Key victim = static_cast<Key>(rng.NextBounded(kKeys));
      map.Remove(victim);
      map.Put(victim, round);
    }
  });
  std::vector<KiWiMap::Entry> out;
  for (int i = 0; i < 300; ++i) {
    map.Scan(0, kKeys - 1, out);
    Value previous = out.empty() ? 0 : out.front().second;
    for (const auto& [key, value] : out) {
      ASSERT_LE(value, previous);
      previous = value;
    }
    if (!out.empty()) {
      ASSERT_LE(out.front().second - out.back().second, 1);
      ASSERT_GE(out.size(), static_cast<std::size_t>(kKeys) - 1);
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  map.CheckInvariants();
}

// Real-time visibility: once a put returns, every later get sees it (or a
// newer value).  A flag-passing pattern makes the ordering external.
TEST(KiWiVisibility, GetSeesCompletedPut) {
  KiWiMap map(TinyChunks(32));
  std::atomic<Value> published{-1};
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (Value v = 0; v < 30000; ++v) {
      map.Put(42, v);
      published.store(v, std::memory_order_seq_cst);
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const Value expected = published.load(std::memory_order_seq_cst);
      if (expected < 0) continue;
      const Value got = map.Get(42).value_or(-1);
      ASSERT_GE(got, expected) << "get returned a value older than a put "
                                  "that completed before it started";
    }
  });
  producer.join();
  consumer.join();
}

// Scans must also be real-time: a completed put is visible to later scans.
TEST(KiWiVisibility, ScanSeesCompletedPut) {
  KiWiMap map(TinyChunks(32));
  std::atomic<Value> published{-1};
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (Value v = 0; v < 8000; ++v) {
      map.Put(v % 64, v);
      published.store(v, std::memory_order_seq_cst);
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread consumer([&] {
    std::vector<KiWiMap::Entry> out;
    while (!stop.load(std::memory_order_acquire)) {
      const Value expected = published.load(std::memory_order_seq_cst);
      if (expected < 0) continue;
      const Key key = expected % 64;
      map.Scan(key, key, out);
      ASSERT_FALSE(out.empty());
      ASSERT_GE(out.front().second, expected);
    }
  });
  producer.join();
  consumer.join();
}

// Disjoint-range writers + full verification: no put is ever lost across
// rebalances, splits and merges.
TEST(KiWiStress, DisjointWritersLoseNothing) {
  constexpr int kThreads = 6;
  constexpr Key kPerThread = 8000;
  KiWiMap map(TinyChunks(64));
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const Key base = t * kPerThread;
      for (Key k = 0; k < kPerThread; ++k) map.Put(base + k, base + k);
    });
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(map.Size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (Key k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_EQ(map.Get(k).value_or(-1), k);
  }
  map.CheckInvariants();
}

// Same key hammered by everyone: the final value must be one some thread
// wrote last (cannot verify which, but it must be a valid candidate), and
// per-thread monotone values must never appear to regress for gets racing
// a single writer (covered above); here we check convergence.
TEST(KiWiStress, SingleKeyContention) {
  constexpr int kThreads = 8;
  KiWiMap map(TinyChunks(16));
  SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  std::atomic<Value> last_written{-1};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      barrier.ArriveAndWait();
      for (int i = 0; i < 5000; ++i) {
        map.Put(1, t * 1000000 + i);
      }
      last_written.store(t, std::memory_order_relaxed);
    });
  }
  for (auto& thread : threads) thread.join();
  const Value final_value = map.Get(1).value_or(-1);
  EXPECT_GE(final_value, 0);
  EXPECT_EQ(final_value % 1000000, 4999);  // someone's last iteration
}

struct StressParam {
  std::uint32_t chunk_capacity;
  bool batches;  // writes go through PutBatch (short runs) instead of Put
};

class KiWiMixedStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(KiWiMixedStress, MixedOpsKeepStructureSane) {
  const StressParam param = GetParam();
  KiWiMap map(TinyChunks(param.chunk_capacity));
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t * 31 + 7);
      std::vector<KiWiMap::Entry> out;
      for (int i = 0; i < 20000; ++i) {
        const Key key = static_cast<Key>(rng.NextBounded(3000));
        switch (rng.NextBounded(10)) {
          case 0: case 1: case 2: case 3:
            if (param.batches) {
              const KiWiMap::Entry batch[] = {{key, i}, {key + 1, i}};
              map.PutBatch(batch);
            } else {
              map.Put(key, i);
            }
            break;
          case 4: case 5:
            map.Remove(key);
            break;
          case 6: case 7: case 8:
            map.Get(key);
            break;
          default: {
            map.Scan(key, key + 100, out);
            Key previous = kMinKeySentinel;
            for (const auto& [k, v] : out) {
              ASSERT_GT(k, previous);  // sorted, no duplicates
              ASSERT_GE(k, key);
              ASSERT_LE(k, key + 100);
              previous = k;
            }
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  map.CheckInvariants();
  map.CompactAll();
  map.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KiWiMixedStress,
    ::testing::Values(StressParam{16, false}, StressParam{64, false},
                      StressParam{256, false}, StressParam{64, true}),
    [](const auto& info) {
      return "cap" + std::to_string(info.param.chunk_capacity) +
             (info.param.batches ? "_batches" : "");
    });

// Many concurrent scanners force version retention; afterwards compaction
// must shed the garbage and keep answers intact.
TEST(KiWiStress, ScannersForceVersionRetention) {
  KiWiMap map(TinyChunks(64));
  for (Key k = 0; k < 2000; ++k) map.Put(k, 0);
  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  for (int s = 0; s < 4; ++s) {
    scanners.emplace_back([&] {
      std::vector<KiWiMap::Entry> out;
      while (!stop.load(std::memory_order_acquire)) {
        map.Scan(0, 1999, out);
        ASSERT_LE(out.size(), 2000u);
      }
    });
  }
  for (int round = 1; round <= 30; ++round) {
    for (Key k = 0; k < 2000; ++k) map.Put(k, round);
  }
  stop.store(true, std::memory_order_release);
  for (auto& scanner : scanners) scanner.join();
  map.CompactAll();
  map.DrainReclamation();
  EXPECT_EQ(map.Size(), 2000u);
  for (Key k = 0; k < 2000; ++k) ASSERT_EQ(map.Get(k).value_or(-1), 30);
}

}  // namespace
}  // namespace kiwi::core
