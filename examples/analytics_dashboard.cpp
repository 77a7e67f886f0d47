// Real-time analytics dashboard — the paper's motivating scenario (§1):
// a Flurry-style pipeline where ingestion threads stream metric updates
// into the map while analytics threads concurrently compute aggregate
// reports over key ranges.
//
// Keyspace layout: key = app_id * kMetricSlots + metric_slot, so one app's
// metrics occupy a contiguous range and a per-app report is a range scan.
//
// The consistency KiWi guarantees (and this example checks): every app
// updates its metrics so their SUM is invariant (it moves counts between
// buckets).  Because scans are atomic, every report sees the invariant sum
// — a non-atomic map would routinely report torn totals.
//
//   $ ./build/examples/analytics_dashboard [seconds]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/kiwi_map.h"
#include "obs/report.h"

using kiwi::Key;
using kiwi::Value;
using kiwi::Xoshiro256;
using kiwi::core::KiWiMap;

namespace {

constexpr Key kApps = 200;
constexpr Key kMetricSlots = 64;
constexpr Value kBudgetPerApp = 1000;  // invariant sum per app

Key SlotKey(Key app, Key slot) { return app * kMetricSlots + slot; }

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 2.0;
  KiWiMap map;

  // Seed every app: the whole budget in slot 0.
  for (Key app = 0; app < kApps; ++app) {
    map.Put(SlotKey(app, 0), kBudgetPerApp);
    for (Key slot = 1; slot < kMetricSlots; ++slot) {
      map.Put(SlotKey(app, slot), 0);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ingested{0};

  // Ingestion: move small amounts between two metric slots of one app.
  // Each writer owns a disjoint set of apps (ownership sharding, as real
  // ingestion pipelines do), so a transfer is two uncontended puts.  The
  // two puts are separate linearization points, so an atomic scan may catch
  // the midpoint of at most ONE in-flight transfer — the aggregate can be
  // off by at most a single transfer amount, and never drifts.  A
  // non-atomic scan has no such bound: it can interleave with arbitrarily
  // many transfers and even observe one slot twice at different times.
  std::vector<std::thread> ingesters;
  const unsigned n_ingest = 3;
  for (unsigned t = 0; t < n_ingest; ++t) {
    ingesters.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      while (!stop.load(std::memory_order_acquire)) {
        const Key app = t + n_ingest * rng.NextBounded(kApps / n_ingest);
        const Key from_slot = rng.NextBounded(kMetricSlots);
        const Key to_slot = rng.NextBounded(kMetricSlots);
        if (from_slot == to_slot) continue;
        const Value source =
            map.Get(SlotKey(app, from_slot)).value_or(0);
        if (source <= 0) continue;
        const Value amount = 1 + static_cast<Value>(
                                     rng.NextBounded(source > 8 ? 8 : source));
        // Two puts; a scan may land between them and see the app's total
        // off by at most `amount` (bounded tear on the *aggregate*, never a
        // torn individual value, and never drift: the next scan re-sees a
        // consistent total).
        map.Put(SlotKey(app, from_slot), source - amount);
        const Value target = map.Get(SlotKey(app, to_slot)).value_or(0);
        map.Put(SlotKey(app, to_slot), target + amount);
        ingested.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Analytics: per-app reports via atomic range scans.
  std::atomic<std::uint64_t> reports{0};
  std::atomic<std::uint64_t> max_observed_deviation{0};
  std::thread analyst([&] {
    Xoshiro256 rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      const Key app = rng.NextBounded(kApps);
      Value sum = 0;
      std::size_t slots = 0;
      map.Scan(SlotKey(app, 0), SlotKey(app, kMetricSlots - 1),
               [&](Key, Value v) {
                 sum += v;
                 ++slots;
               });
      const std::uint64_t deviation =
          sum > kBudgetPerApp ? sum - kBudgetPerApp : kBudgetPerApp - sum;
      // Atomicity bound: at most one in-flight transfer can straddle the
      // snapshot, so the deviation never exceeds one transfer (8).
      if (deviation > 8) {
        std::printf("CONSISTENCY VIOLATION: app %lld sum %lld (slots %zu)\n",
                    static_cast<long long>(app), static_cast<long long>(sum),
                    slots);
        std::exit(1);
      }
      std::uint64_t seen = max_observed_deviation.load();
      while (deviation > seen &&
             !max_observed_deviation.compare_exchange_weak(seen, deviation)) {
      }
      reports.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (auto& thread : ingesters) thread.join();
  analyst.join();

  std::printf("dashboard ran %.1fs: %llu transfers ingested, %llu atomic "
              "reports served, max aggregate deviation %llu (bound 8)\n",
              seconds,
              static_cast<unsigned long long>(ingested.load()),
              static_cast<unsigned long long>(reports.load()),
              static_cast<unsigned long long>(max_observed_deviation.load()));
  const kiwi::obs::DebugReport report = map.DebugReport();
  std::printf("map: %zu keys in %llu chunks, %llu bytes\n", map.Size(),
              static_cast<unsigned long long>(report.census.chunks),
              static_cast<unsigned long long>(report.gauges.memory_bytes));
  return 0;
}
