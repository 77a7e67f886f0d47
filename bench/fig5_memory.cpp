// Figure 5: RAM use with parallel scans (32-key ranges) and background
// puts, 1M-scale dataset.  The paper samples the JVM's memory-in-use right
// after a full GC; the native analogue drains deferred reclamation
// (EBR retire lists) and reads each structure's self-reported footprint.
#include "bench_common.h"

using namespace kiwi;

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  bench::DescribeEnvironment(config, "fig5");
  const std::uint64_t scan_size = harness::EnvOrU64("KIWI_BENCH_SCAN_SIZE", 32);
  harness::Note("Figure 5: memory footprint, " + std::to_string(scan_size) +
                "-key scans with background puts");
  for (const api::MapKind kind : config.maps) {
    for (const std::uint64_t scan_threads : config.threads) {
      auto map = api::MakeMap(kind);
      std::vector<harness::Role> roles{
          {"scan", scan_threads,
           harness::WorkloadSpec::ScanOnly(config.KeyRange(), scan_size)},
          {"put", scan_threads,
           harness::WorkloadSpec::PutOnly(config.KeyRange())}};
      harness::DriverOptions options = config.driver;
      options.initial_size = config.dataset_size;
      options.measure_memory = true;
      const harness::RunResult result =
          harness::RunWorkload(*map, roles, options);
      const double mb =
          static_cast<double>(result.memory_bytes) / (1024.0 * 1024.0);
      harness::EmitCsv("fig5", map->Name(),
                       static_cast<double>(scan_threads), mb, "MB");
      harness::Note("  " + map->Name() + " scan_threads=" +
                    std::to_string(scan_threads) + " -> " +
                    harness::FormatMb(result.memory_bytes));
      // KiWi recycles chunk slabs through its SlabPool; split the pool's
      // view into live (handed-out) vs pooled (idle recycled stock) so the
      // post-drain footprint above is attributable.  Pooled bytes are NOT
      // part of the fig5 metric — they are reusable stock, the analogue of
      // a JVM's free heap after GC.
      if (auto* kiwi_adapter =
              dynamic_cast<api::MapAdapter<core::KiWiMap>*>(map.get())) {
        const reclaim::SlabPool::Stats pool =
            kiwi_adapter->Underlying().Pool().GetStats();
        const double live_mb =
            static_cast<double>(pool.live_bytes) / (1024.0 * 1024.0);
        const double pooled_mb =
            static_cast<double>(pool.pooled_bytes) / (1024.0 * 1024.0);
        harness::EmitCsv("fig5_pool_live", map->Name(),
                         static_cast<double>(scan_threads), live_mb, "MB");
        harness::EmitCsv("fig5_pool_idle", map->Name(),
                         static_cast<double>(scan_threads), pooled_mb, "MB");
        harness::Note("    pool: live=" + harness::FormatMb(pool.live_bytes) +
                      " idle=" + harness::FormatMb(pool.pooled_bytes) +
                      " hits=" + std::to_string(pool.hits) +
                      " misses=" + std::to_string(pool.misses));
      }
      bench::EmitObsReport(config, "fig5",
                           map->Name() + "@" + std::to_string(scan_threads),
                           *map);
    }
  }
  harness::Note("note: footprints are structure-reported live bytes after "
                "draining deferred reclamation (the paper's post-GC "
                "JVM metric analogue)");
  return 0;
}
