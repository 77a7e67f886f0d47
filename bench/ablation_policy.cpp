// Ablation: rebalance-policy tuning (§6.1 fixes probability 0.15 and
// batched-prefix threshold 0.625; §3.3.1 motivates both).  Sweeps the
// trigger probability and the prefix-ratio threshold under a put-heavy
// load and reports throughput plus rebalance counts, showing the
// staggering effect probabilistic triggering buys.
#include "bench_common.h"
#include "core/kiwi_map.h"

using namespace kiwi;

namespace {

void RunOne(const bench::BenchConfig& config, double probability,
            double ratio) {
  core::KiWiConfig kiwi_config;
  kiwi_config.rebalance_probability = probability;
  kiwi_config.batched_prefix_min_ratio = ratio;
  kiwi_config.chunk_capacity = 256;  // smaller chunks: policy fires often
  auto map = api::MakeMap(api::MapKind::kKiWi, kiwi_config);
  const std::uint64_t threads = config.threads.back();
  std::vector<harness::Role> roles{
      {"put", threads, harness::WorkloadSpec::PutOnly(config.KeyRange())},
      {"scan", 1,
       harness::WorkloadSpec::ScanOnly(config.KeyRange(), 4096)}};
  harness::DriverOptions options = config.driver;
  options.initial_size = config.dataset_size;
  const harness::RunResult result = harness::RunWorkload(*map, roles, options);
  auto& kiwi_map =
      static_cast<api::MapAdapter<core::KiWiMap>&>(*map).Underlying();
  const obs::OpCounters stats = kiwi_map.DebugReport().counters;
  const double put_mops = result.Role("put").OpsPerSec() / 1e6;
  const double scan_mkeys = result.Role("scan").KeysPerSec() / 1e6;
  char label[64];
  std::snprintf(label, sizeof(label), "p%.2f_r%.3f", probability, ratio);
  harness::EmitCsv("ablation_policy", std::string("put_") + label, 0,
                   put_mops, "Mops/s");
  harness::EmitCsv("ablation_policy", std::string("scan_") + label, 0,
                   scan_mkeys, "Mkeys/s");
  harness::Note("  prob=" + std::to_string(probability) + " ratio=" +
                std::to_string(ratio) + " put=" +
                harness::FormatMps(put_mops * 1e6) + " scan=" +
                harness::FormatMps(scan_mkeys * 1e6) + " rebalances=" +
                std::to_string(stats.rebalances) + " restarts=" +
                std::to_string(stats.put_restarts));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  bench::DescribeEnvironment(config, "ablation_policy");
  harness::Note("rebalance-probability sweep at the paper's ratio 0.625");
  for (const double probability : {0.02, 0.15, 0.5, 1.0}) {
    RunOne(config, probability, 0.625);
  }
  harness::Note("batched-prefix-ratio sweep at the paper's probability 0.15");
  for (const double ratio : {0.25, 0.625, 0.9}) {
    RunOne(config, 0.15, ratio);
  }
  return 0;
}
