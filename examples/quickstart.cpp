// Quickstart: the KiWi map in five minutes.
//
//   $ ./build/examples/quickstart
//
// Covers the whole public API — Put/Get/Remove/Scan — then shows the one
// property that distinguishes KiWi from an ordinary concurrent map: scans
// are atomic snapshots even while writers are running.
#include <cstdio>
#include <thread>

#include "core/kiwi_map.h"
#include "obs/report.h"

using kiwi::Key;
using kiwi::Value;
using kiwi::core::KiWiMap;

int main() {
  KiWiMap map;  // default config: 1024-cell chunks, paper's policy tuning

  // --- basic operations --------------------------------------------------
  map.Put(2021, 17);
  map.Put(2022, 23);
  map.Put(2023, 31);
  map.Put(2022, 24);  // overwrite
  map.Remove(2021);

  std::printf("get(2022) = %lld\n",
              static_cast<long long>(map.Get(2022).value_or(-1)));
  std::printf("get(2021) = %s (removed)\n",
              map.Get(2021).has_value() ? "present" : "absent");

  // --- range scans -------------------------------------------------------
  for (Key k = 0; k < 100; ++k) map.Put(k, k * k);
  std::printf("scan [10, 15]:");
  map.Scan(10, 15, [](Key k, Value v) {
    std::printf(" %lld->%lld", static_cast<long long>(k),
                static_cast<long long>(v));
  });
  std::printf("\n");

  // --- atomic scans under concurrent updates ------------------------------
  // A writer stamps keys 0..99 with a round number, in ascending order.
  // Because KiWi scans are linearizable snapshots, a scan can only ever see
  // two adjacent rounds: a prefix of round r and a suffix of r-1 — never a
  // mix from three rounds or an out-of-order interleaving.
  std::atomic<bool> stop{false};
  std::thread writer([&map, &stop] {
    for (Value round = 1; !stop.load(); ++round) {
      for (Key k = 0; k < 100; ++k) map.Put(k, round);
    }
  });

  std::size_t checked = 0;
  for (int i = 0; i < 1000; ++i) {
    Value low = -1, high = -1;
    map.Scan(0, 99, [&](Key, Value v) {
      if (high < 0) high = v;  // first (largest: writer sweeps ascending)
      low = v;                 // last
    });
    if (high - low > 1) {
      std::printf("TORN SNAPSHOT — this must never print\n");
      return 1;
    }
    ++checked;
  }
  stop.store(true);
  writer.join();
  std::printf("%zu concurrent scans, every one an atomic snapshot\n",
              checked);

  // --- introspection -------------------------------------------------------
  const kiwi::obs::DebugReport report = map.DebugReport();
  std::printf("size=%zu chunks=%llu rebalances=%llu footprint=%llu bytes\n",
              map.Size(),
              static_cast<unsigned long long>(report.census.chunks),
              static_cast<unsigned long long>(report.counters.rebalances),
              static_cast<unsigned long long>(report.gauges.memory_bytes));
  return 0;
}
