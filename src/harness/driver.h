// Multithreaded workload driver: the paper's methodology (§6.1) — warmup,
// then N timed iterations, averaged — with per-role throughput accounting
// so scan and put throughput can be reported separately (Figure 4).
//
// Durations are scaled down by default so `ctest` and the full bench sweep
// finish in minutes on one core; the environment variables
// KIWI_BENCH_WARMUP_MS / KIWI_BENCH_ITER_MS / KIWI_BENCH_ITERS restore
// paper-scale runs (20000 / 5000 / 10).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/map_interface.h"
#include "harness/workload.h"

namespace kiwi::harness {

/// A group of threads running one workload spec.
struct Role {
  std::string name;
  std::size_t threads = 1;
  WorkloadSpec spec;
};

struct RoleResult {
  std::string name;
  std::size_t threads = 0;
  std::uint64_t ops = 0;        // completed operations across iterations
  std::uint64_t keys = 0;       // keys touched (scan ops count their range)
  double seconds = 0;           // summed measured time
  double OpsPerSec() const { return seconds > 0 ? ops / seconds : 0; }
  double KeysPerSec() const { return seconds > 0 ? keys / seconds : 0; }
};

struct RunResult {
  std::vector<RoleResult> roles;
  std::size_t memory_bytes = 0;  // footprint after the run (drained)

  const RoleResult& Role(const std::string& name) const;
};

/// The integer in environment variable `name`, or `fallback` when it is
/// unset or empty (the KIWI_BENCH_* knobs).
std::uint64_t EnvOrU64(const char* name, std::uint64_t fallback);

struct DriverOptions {
  std::uint64_t warmup_ms = 150;
  std::uint64_t iteration_ms = 400;
  std::uint32_t iterations = 3;
  std::uint64_t seed = 42;
  /// Prefill size; 0 skips prefill.
  std::uint64_t initial_size = 0;
  /// Spec whose key_range the prefill draws from (defaults to first role).
  bool measure_memory = false;
  /// File the flight recorder is dumped to (Perfetto-loadable JSON) after
  /// each run, overwriting; empty: no dump.  Ignored when the recorder is
  /// compiled out.  KIWI_BENCH_TRACE=1 means kiwi_trace.json, 0 or empty
  /// means none, anything else is the file name.
  std::string trace_path;

  /// Apply KIWI_BENCH_* environment overrides.
  static DriverOptions FromEnv(DriverOptions defaults);
  static DriverOptions FromEnv() { return FromEnv(DriverOptions{}); }
};

/// Run the workload: prefill, warmup, timed iterations.  Thread counts are
/// taken as given even when they exceed hardware parallelism (the paper's
/// machine has 32 cores; on smaller hosts the schedule is oversubscribed
/// and absolute numbers compress, but algorithmic effects survive).
RunResult RunWorkload(api::IOrderedMap& map, const std::vector<Role>& roles,
                      const DriverOptions& options);

}  // namespace kiwi::harness
