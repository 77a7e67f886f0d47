// Ablation: rebalance engagement width (merge aggressiveness) under a
// rebalance-heavy put load.  Width 1 disables merging (trigger-chunk-only
// rebalance, the strawman §3.3.1 argues against) and is expected to leave
// more, sparser chunks behind.
#include "bench_common.h"
#include "core/kiwi_map.h"
#include "obs/report.h"

using namespace kiwi;

namespace {

void RunConfig(const bench::BenchConfig& config, const std::string& label,
               const core::KiWiConfig& kiwi_config) {
  auto map = api::MakeMap(api::MapKind::kKiWi, kiwi_config);
  const std::uint64_t threads = config.threads.back();
  std::vector<harness::Role> roles{
      {"put", threads, harness::WorkloadSpec::PutOnly(config.KeyRange())}};
  harness::DriverOptions options = config.driver;
  options.initial_size = config.dataset_size;
  const harness::RunResult result = harness::RunWorkload(*map, roles, options);
  auto& kiwi_map =
      static_cast<api::MapAdapter<core::KiWiMap>&>(*map).Underlying();
  const obs::DebugReport report = kiwi_map.DebugReport();
  const double put_mops = result.Role("put").OpsPerSec() / 1e6;
  harness::EmitCsv("ablation_features", label, 0, put_mops, "Mops/s");
  harness::Note("  " + label + ": put=" + harness::FormatMps(put_mops * 1e6) +
                " rebalances=" + std::to_string(report.counters.rebalances) +
                " restarts=" + std::to_string(report.counters.put_restarts) +
                " chunks=" + std::to_string(report.census.chunks));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  bench::DescribeEnvironment(config, "ablation_features");

  core::KiWiConfig base;
  base.chunk_capacity = 256;  // rebalance-heavy regime

  harness::Note("rebalance engagement width (1 = no merging)");
  for (const std::uint32_t width : {1u, 2u, 8u}) {
    core::KiWiConfig cfg = base;
    cfg.max_engaged_chunks = width;
    RunConfig(config, "engage_width_" + std::to_string(width), cfg);
  }
  return 0;
}
