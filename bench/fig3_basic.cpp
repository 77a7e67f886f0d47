// Figure 3: throughput scalability under uniform workloads.
//   (a) get-only: uniform random reads
//   (b) put-only: half inserts/updates, half deletes
//   (c) scan-only: 32K-key ranges from random lower bounds
// One series per map, x = worker threads, y = Mkeys/sec (matching the
// paper's axes).  Run a single panel with --panel=get|put|scan.
#include "bench_common.h"

using namespace kiwi;

namespace {

void RunPanel(const bench::BenchConfig& config, const std::string& op) {
  const std::uint64_t scan_size =
      harness::EnvOrU64("KIWI_BENCH_SCAN_SIZE", 32 * 1024);
  harness::Note("Figure 3(" + op + ")");
  for (const api::MapKind kind : config.maps) {
    for (const std::uint64_t threads : config.threads) {
      auto map = api::MakeMap(kind);
      harness::WorkloadSpec spec;
      if (op == "get") {
        spec = harness::WorkloadSpec::GetOnly(config.KeyRange());
      } else if (op == "put") {
        spec = harness::WorkloadSpec::PutOnly(config.KeyRange());
      } else {
        spec = harness::WorkloadSpec::ScanOnly(config.KeyRange(), scan_size);
      }
      std::vector<harness::Role> roles{{op, threads, spec}};
      harness::DriverOptions options = config.driver;
      options.initial_size = config.dataset_size;
      const harness::RunResult result =
          harness::RunWorkload(*map, roles, options);
      const harness::RoleResult& role = result.Role(op);
      harness::EmitCsv("fig3" + op, map->Name(),
                       static_cast<double>(threads), role.KeysPerSec() / 1e6,
                       "Mkeys/s");
      harness::Note("  " + map->Name() + " threads=" +
                    std::to_string(threads) + " -> " +
                    harness::FormatMps(role.KeysPerSec()) + " (" +
                    std::to_string(role.ops) + " ops)");
      bench::EmitObsReport(config, "fig3" + op,
                           map->Name() + "@" + std::to_string(threads), *map);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  bench::DescribeEnvironment(config, "fig3");
  if (config.panel.empty() || config.panel == "get") RunPanel(config, "get");
  if (config.panel.empty() || config.panel == "put") RunPanel(config, "put");
  if (config.panel.empty() || config.panel == "scan") {
    RunPanel(config, "scan");
  }
  return 0;
}
