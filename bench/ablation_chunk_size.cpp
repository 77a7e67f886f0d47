// Ablation: KiWi chunk capacity.  The paper fixes it at 1024 (§6.1); this
// sweep shows the tradeoff that choice sits on — small chunks rebalance
// constantly (put-path churn), huge chunks slow in-chunk search and scans'
// per-chunk merge.
#include "bench_common.h"
#include "core/kiwi_map.h"
#include "obs/report.h"

using namespace kiwi;

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  bench::DescribeEnvironment(config, "ablation_chunk_size");
  const std::uint64_t threads = config.threads.back();
  std::vector<std::uint64_t> capacities{64, 256, 1024, 4096};
  if (const char* env = std::getenv("KIWI_BENCH_CAPACITIES")) {
    harness::ParseUintList(env, &capacities);
  }
  harness::Note("chunk-capacity sweep, mixed workload (45% put, 45% get, "
                "10% scan of 1024), " + std::to_string(threads) + " threads");
  for (const std::uint64_t capacity : capacities) {
    core::KiWiConfig kiwi_config;
    kiwi_config.chunk_capacity = static_cast<std::uint32_t>(capacity);
    auto map = api::MakeMap(api::MapKind::kKiWi, kiwi_config);
    harness::WorkloadSpec spec;
    spec.put_fraction = 0.45;
    spec.get_fraction = 0.45;
    spec.scan_fraction = 0.10;
    spec.key_range = config.KeyRange();
    spec.scan_size = 1024;
    std::vector<harness::Role> roles{{"mixed", threads, spec}};
    harness::DriverOptions options = config.driver;
    options.initial_size = config.dataset_size;
    const harness::RunResult result = harness::RunWorkload(*map, roles, options);
    const harness::RoleResult& role = result.Role("mixed");
    auto& kiwi_map =
        static_cast<api::MapAdapter<core::KiWiMap>&>(*map).Underlying();
    const obs::DebugReport report = kiwi_map.DebugReport();
    harness::EmitCsv("ablation_chunk_size", "mixed",
                     static_cast<double>(capacity), role.KeysPerSec() / 1e6,
                     "Mkeys/s");
    harness::Note("  capacity=" + std::to_string(capacity) + " -> " +
                  harness::FormatMps(role.KeysPerSec()) + ", rebalances=" +
                  std::to_string(report.counters.rebalances) + ", chunks=" +
                  std::to_string(report.census.chunks));
  }
  return 0;
}
