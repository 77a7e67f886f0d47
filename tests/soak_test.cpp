// Heavier soak scenarios (each a few seconds): deterministic writer +
// concurrent readers with a final oracle comparison, and an oversubscribed
// all-ops stress at 16 threads (beyond the host's core count by design —
// preemption inside critical windows is the point).
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "api/map_interface.h"
#include "common/random.h"
#include "common/test_env.h"
#include "core/kiwi_map.h"

namespace kiwi {
namespace {

// A single deterministic writer mutates; concurrent readers may not affect
// the outcome (reads are helpful but side-effect-free at the abstract
// level).  Afterwards the map must equal the oracle exactly — catches any
// case where helping (version installation) corrupts put ordering.
TEST(Soak, ReadersNeverPerturbWriterOutcome) {
  for (const api::MapKind kind :
       {api::MapKind::kKiWi, api::MapKind::kSkipList, api::MapKind::kKaryTree,
        api::MapKind::kSnapTree, api::MapKind::kCtrie}) {
    core::KiWiConfig config;
    config.chunk_capacity = 64;
    auto map = api::MakeMap(kind, config);
    std::map<Key, Value> oracle;
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&, r] {
        Xoshiro256 rng(900 + r);
        std::vector<api::IOrderedMap::Entry> out;
        while (!stop.load(std::memory_order_acquire)) {
          const Key key = static_cast<Key>(rng.NextBounded(2000));
          if (rng.NextBool(0.5)) {
            map->Get(key);
          } else {
            map->Scan(key, key + 64, out);
          }
        }
      });
    }
    Xoshiro256 rng(77);
    const int iters = ScaledIters(60000);
    for (int i = 0; i < iters; ++i) {
      const Key key = static_cast<Key>(rng.NextBounded(2000));
      if (rng.NextBool(0.3)) {
        map->Remove(key);
        oracle.erase(key);
      } else {
        map->Put(key, i);
        oracle[key] = i;
      }
    }
    stop.store(true, std::memory_order_release);
    for (auto& reader : readers) reader.join();

    std::vector<api::IOrderedMap::Entry> out;
    map->Scan(kMinUserKey, kMaxUserKey, out);
    ASSERT_EQ(out.size(), oracle.size()) << map->Name();
    auto it = oracle.begin();
    for (const auto& [k, v] : out) {
      ASSERT_EQ(k, it->first) << map->Name();
      ASSERT_EQ(v, it->second) << map->Name();
      ++it;
    }
  }
}

// 16 threads on whatever cores exist: heavy preemption probability inside
// every window (publish-before-version, freeze-before-build, mark-before-
// splice).  Tiny chunks maximize rebalance traffic.
TEST(Soak, OversubscribedAllOps) {
  core::KiWiConfig config;
  config.chunk_capacity = 16;
  core::KiWiMap map(config);
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> scan_keys{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t * 101 + 11);
      std::vector<core::KiWiMap::Entry> out;
      const int iters = ScaledIters(6000);
      for (int i = 0; i < iters; ++i) {
        const Key key = static_cast<Key>(rng.NextBounded(1500));
        switch (rng.NextBounded(8)) {
          case 0: case 1: case 2:
            map.Put(key, t * 1000000 + i);
            break;
          case 3:
            map.Remove(key);
            break;
          case 4: case 5:
            map.Get(key);
            break;
          case 6: {
            map.Scan(key, key + 80, out);
            Key previous = kMinKeySentinel;
            for (const auto& [k, v] : out) {
              ASSERT_GT(k, previous);
              previous = k;
            }
            scan_keys.fetch_add(out.size(), std::memory_order_relaxed);
            break;
          }
          default: {
            core::KiWiMap::Snapshot snapshot(map);
            snapshot.Get(key);
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  map.CheckInvariants();
  map.CompactAll();
  map.DrainReclamation();
  map.CheckInvariants();
  EXPECT_GT(scan_keys.load(), 0u);
#if KIWI_OBS_ENABLED
  // Counters read zero in a KIWI_STATS=OFF build.
  EXPECT_GT(map.DebugReport().counters.rebalances, 100u);
#endif
}

}  // namespace
}  // namespace kiwi
