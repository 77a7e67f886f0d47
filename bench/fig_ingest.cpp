// Burst ingest: PutBatch vs per-op Put (docs/INGEST.md).
//
// Real-time analytics pipelines deliver data in bursts — a network read or
// file chunk yields thousands of pairs at once, frequently already sorted
// (time-keyed streams, LSM flushes, partitioned loaders).  This bench
// measures that shape: each writer thread ingests its partition of the
// keyspace in bursts of --batch (default 4096) entries, either by looping
// Put per entry or by handing the whole burst to PutBatch.
//
// Series (x = writer threads, y = Mkeys/s):
//   kiwi_put_presorted    per-op Put, each burst ascending   (baseline)
//   kiwi_batch_presorted  PutBatch, ascending bursts         (bulk-build path)
//   kiwi_put_random       per-op Put, uniform random keys
//   kiwi_batch_random     PutBatch, random bursts            (run-split path)
//   skiplist_put_presorted / skiplist_batch_presorted        (reference;
//       skiplist has no native batch, so batch == loop over Put)
//   batch_over_put_presorted / batch_over_put_random         speed-up ratios
//
// Expected shape: batch_over_put_presorted is a multiple (>= 2x — CI gates
// on this via scripts/bench_smoke.py), because presorted bursts take the
// bulk path: one chunk build amortized over a whole run instead of one
// version-CAS + list-link per key.  Random bursts gain less (runs are
// short), but still save on locate/check overhead.
#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.h"

using namespace kiwi;

namespace {

using Entry = api::IOrderedMap::Entry;

// One thread's burst sequence.  Presorted: bursts tile an ascending,
// per-thread-disjoint key partition (thread t owns [t*N, (t+1)*N)).
// Random: uniform keys over the whole 2N range, duplicates allowed.
std::vector<std::vector<Entry>> MakeBursts(std::uint64_t thread,
                                           std::uint64_t burst,
                                           std::uint64_t bursts_per_thread,
                                           bool presorted,
                                           std::uint64_t key_range) {
  std::vector<std::vector<Entry>> out(bursts_per_thread);
  std::mt19937_64 rng(0x516E57 + thread);
  std::uniform_int_distribution<Key> dist(1, static_cast<Key>(key_range));
  Key next = static_cast<Key>(thread * burst * bursts_per_thread) + 1;
  for (std::uint64_t b = 0; b < bursts_per_thread; ++b) {
    out[b].reserve(burst);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const Key key = presorted ? next++ : dist(rng);
      out[b].emplace_back(key, static_cast<Value>(key));
    }
  }
  return out;
}

// Ingest every burst on `threads` writers; returns keys/sec.  Fresh map per
// call (burst ingest is a fill, not a steady state — reusing a full map
// would measure overwrite, not ingest).
double IngestThroughput(api::IOrderedMap& map, std::uint64_t threads,
                        std::uint64_t burst, std::uint64_t bursts_per_thread,
                        bool presorted, bool use_batch,
                        std::uint64_t key_range) {
  std::vector<std::vector<std::vector<Entry>>> inputs;
  inputs.reserve(threads);
  for (std::uint64_t t = 0; t < threads; ++t) {
    inputs.push_back(
        MakeBursts(t, burst, bursts_per_thread, presorted, key_range));
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint64_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (const std::vector<Entry>& b : inputs[t]) {
        if (use_batch) {
          map.PutBatch(b);
        } else {
          for (const Entry& e : b) map.Put(e.first, e.second);
        }
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const double total_keys =
      static_cast<double>(threads * burst * bursts_per_thread);
  return elapsed.count() > 0 ? total_keys / elapsed.count() : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  bench::DescribeEnvironment(config, "fig_ingest");
  const std::uint64_t burst = harness::EnvOrU64("KIWI_BENCH_BATCH", 4096);
  // dataset_size keys per thread per measurement, in bursts.
  const std::uint64_t bursts_per_thread =
      (config.dataset_size + burst - 1) / burst;
  harness::Note("Burst ingest, burst=" + std::to_string(burst) + " (" +
                std::to_string(bursts_per_thread) +
                " bursts/thread), PutBatch vs per-op Put");

  for (const std::uint64_t threads : config.threads) {
    double kiwi_put_sorted = 0, kiwi_batch_sorted = 0;
    double kiwi_put_random = 0, kiwi_batch_random = 0;
    for (const api::MapKind kind : config.maps) {
      // k-ary collapses under ordered insertion (fig6 covers that story);
      // snaptree/ctrie add nothing here — keep the default run tight.
      if (kind != api::MapKind::kKiWi && kind != api::MapKind::kSkipList) {
        continue;
      }
      const std::string name(api::KindName(kind));
      for (const bool presorted : {true, false}) {
        const std::string order = presorted ? "presorted" : "random";
        double per_op = 0, batched = 0;
        for (const bool use_batch : {false, true}) {
          auto map = api::MakeMap(kind);
          const double keys_per_sec = IngestThroughput(
              *map, threads, burst, bursts_per_thread, presorted, use_batch,
              config.KeyRange());
          (use_batch ? batched : per_op) = keys_per_sec;
          harness::EmitCsv("fig_ingest",
                           name + (use_batch ? "_batch_" : "_put_") + order,
                           static_cast<double>(threads), keys_per_sec / 1e6,
                           "Mkeys/s");
          if (use_batch) {
            bench::EmitObsReport(config, "fig_ingest",
                                 name + "_batch_" + order + "@" +
                                     std::to_string(threads),
                                 *map);
          }
        }
        harness::Note("  " + name + " " + order + " @" +
                      std::to_string(threads) + "t: put " +
                      harness::FormatMps(per_op) + " vs batch " +
                      harness::FormatMps(batched) + " (" +
                      std::to_string(per_op > 0 ? batched / per_op : 0) +
                      "x)");
        if (kind == api::MapKind::kKiWi) {
          if (presorted) {
            kiwi_put_sorted = per_op;
            kiwi_batch_sorted = batched;
          } else {
            kiwi_put_random = per_op;
            kiwi_batch_random = batched;
          }
        }
      }
    }
    if (kiwi_put_sorted > 0) {
      harness::EmitCsv("fig_ingest", "batch_over_put_presorted",
                       static_cast<double>(threads),
                       kiwi_batch_sorted / kiwi_put_sorted, "ratio");
    }
    if (kiwi_put_random > 0) {
      harness::EmitCsv("fig_ingest", "batch_over_put_random",
                       static_cast<double>(threads),
                       kiwi_batch_random / kiwi_put_random, "ratio");
    }
  }
  return 0;
}
