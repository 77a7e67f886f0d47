// Figure 4: the paper's headline scenario — analytics scans concurrent with
// real-time puts.  Half the threads scan, half put (PutOnly mix).
//
//   (a) scan throughput vs #scan threads, 32K ranges, 1M-scale dataset
//   (b) scan throughput vs range size (2..128K), 16 threads, 1M-scale
//   (c) like (b) on the 10M-scale dataset
//   (d) put throughput vs #put threads, parallel 32K scans, 1M-scale
//   (e) put throughput vs range size, 16 threads, 1M-scale
//   (f) like (e) on the 10M-scale dataset
//
// Dataset sizes scale from --size / KIWI_BENCH_SIZE (default 50k ~ "1M",
// 10x that ~ "10M").  Select one panel with --panel=a..f.
#include "bench_common.h"

using namespace kiwi;

namespace {

struct MixedResult {
  double scan_mkeys;
  double put_mops;
};

MixedResult RunMixed(const bench::BenchConfig& config, api::MapKind kind,
                     std::uint64_t dataset, std::uint64_t scan_threads,
                     std::uint64_t put_threads, std::uint64_t scan_size,
                     const std::string& obs_series) {
  auto map = api::MakeMap(kind);
  const std::uint64_t key_range = dataset * 2;
  std::vector<harness::Role> roles{
      {"scan", scan_threads,
       harness::WorkloadSpec::ScanOnly(key_range, scan_size)},
      {"put", put_threads, harness::WorkloadSpec::PutOnly(key_range)}};
  harness::DriverOptions options = config.driver;
  options.initial_size = dataset;
  const harness::RunResult result = harness::RunWorkload(*map, roles, options);
  bench::EmitObsReport(config, "fig4", obs_series, *map);
  return MixedResult{result.Role("scan").KeysPerSec() / 1e6,
                     result.Role("put").OpsPerSec() / 1e6};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  bench::DescribeEnvironment(config, "fig4");
  const std::uint64_t small = config.dataset_size;       // "1M" analogue
  const std::uint64_t large = config.dataset_size * 10;  // "10M" analogue
  const std::uint64_t default_scan = std::min<std::uint64_t>(
      harness::EnvOrU64("KIWI_BENCH_SCAN_SIZE", 32 * 1024), small);
  // Range-size sweep: the paper uses 2..128K; scale the upper sizes to the
  // dataset so short runs stay short.
  std::vector<std::uint64_t> ranges;
  for (std::uint64_t r = 2; r <= 128 * 1024 && r <= 2 * small; r *= 8) {
    ranges.push_back(r);
  }
  const std::uint64_t sweep_threads =
      harness::EnvOrU64("KIWI_BENCH_MIXED_THREADS", 8);  // paper: 16

  const auto want = [&](const char* panel) {
    return config.panel.empty() || config.panel == panel;
  };

  for (const api::MapKind kind : config.maps) {
    const std::string name = api::KindName(kind);
    if (want("a") || want("d")) {
      for (const std::uint64_t threads : config.threads) {
        const MixedResult r =
            RunMixed(config, kind, small, threads, threads, default_scan,
                     name + "@a,d:" + std::to_string(threads));
        harness::EmitCsv("fig4a", name, static_cast<double>(threads),
                         r.scan_mkeys, "Mkeys/s");
        harness::EmitCsv("fig4d", name, static_cast<double>(threads),
                         r.put_mops, "Mops/s");
        harness::Note("  a/d " + name + " threads=" +
                      std::to_string(threads) + " scan=" +
                      harness::FormatMps(r.scan_mkeys * 1e6) + " put=" +
                      harness::FormatMps(r.put_mops * 1e6));
      }
    }
    if (want("b") || want("e")) {
      for (const std::uint64_t range : ranges) {
        const MixedResult r =
            RunMixed(config, kind, small, sweep_threads / 2,
                     sweep_threads / 2, range,
                     name + "@b,e:" + std::to_string(range));
        harness::EmitCsv("fig4b", name, static_cast<double>(range),
                         r.scan_mkeys, "Mkeys/s");
        harness::EmitCsv("fig4e", name, static_cast<double>(range),
                         r.put_mops, "Mops/s");
        harness::Note("  b/e " + name + " range=" + std::to_string(range) +
                      " scan=" + harness::FormatMps(r.scan_mkeys * 1e6) +
                      " put=" + harness::FormatMps(r.put_mops * 1e6));
      }
    }
    if (want("c") || want("f")) {
      for (const std::uint64_t range : ranges) {
        const MixedResult r =
            RunMixed(config, kind, large, sweep_threads / 2,
                     sweep_threads / 2, range,
                     name + "@c,f:" + std::to_string(range));
        harness::EmitCsv("fig4c", name, static_cast<double>(range),
                         r.scan_mkeys, "Mkeys/s");
        harness::EmitCsv("fig4f", name, static_cast<double>(range),
                         r.put_mops, "Mops/s");
        harness::Note("  c/f " + name + " range=" + std::to_string(range) +
                      " scan=" + harness::FormatMps(r.scan_mkeys * 1e6) +
                      " put=" + harness::FormatMps(r.put_mops * 1e6));
      }
    }
  }
  return 0;
}
