#include <gtest/gtest.h>
#include <map>
#include <thread>
#include "core/kiwi_map.h"
using namespace kiwi;
using core::KiWiMap;

TEST(Smoke, PutGet) {
  KiWiMap map;
  map.Put(1, 10);
  EXPECT_EQ(map.Get(1).value_or(-1), 10);
}

TEST(Smoke, ManyPutsForceRebalance) {
  core::KiWiConfig cfg; cfg.chunk_capacity = 64;
  KiWiMap map(cfg);
  std::map<Key, Value> oracle;
  Xoshiro256 rng(42);
  for (int i = 0; i < 20000; ++i) {
    Key k = (Key)rng.NextBounded(5000);
    Value v = (Value)rng.NextBounded(1'000'000);
    if (rng.NextBool(0.3) && !oracle.empty()) {
      map.Remove(k); oracle.erase(k);
    } else {
      map.Put(k, v); oracle[k] = v;
    }
  }
  for (auto& [k, v] : oracle) ASSERT_EQ(map.Get(k).value_or(-1), v) << k;
  std::vector<KiWiMap::Entry> out;
  map.Scan(0, 5000, out);
  ASSERT_EQ(out.size(), oracle.size());
  size_t i = 0;
  for (auto& [k, v] : oracle) {
    EXPECT_EQ(out[i].first, k); EXPECT_EQ(out[i].second, v); ++i;
  }
  map.CheckInvariants();
#if KIWI_OBS_ENABLED
  // Counters read zero in a KIWI_STATS=OFF build.
  EXPECT_GT(map.DebugReport().counters.rebalances, 0u);
#endif
}

TEST(Smoke, ConcurrentStress) {
  core::KiWiConfig cfg; cfg.chunk_capacity = 128;
  KiWiMap map(cfg);
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      for (int i = 0; i < 30000; ++i) {
        int op = (int)rng.NextBounded(10);
        Key k = (Key)rng.NextBounded(2000);
        if (op < 5) map.Put(k, (Value)i);
        else if (op < 7) map.Remove(k);
        else if (op < 9) map.Get(k);
        else {
          std::vector<KiWiMap::Entry> out;
          map.Scan(k, k + 200, out);
          Key prev = -1;
          for (auto& [kk, vv] : out) { ASSERT_GT(kk, prev); prev = kk; }
          scans.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  stop = true;
  map.CheckInvariants();
  EXPECT_GT(scans.load(), 0u);
}
