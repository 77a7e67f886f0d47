// Shared plumbing for the figure benches: CLI parsing, scaled-down default
// sizes (env-overridable to paper scale), and the standard competitor set.
//
// Scaling: the paper ran 20s warmup + 10 x 5s iterations on 32 cores with
// 1M/10M-key datasets.  Defaults here are sized so the *entire* bench suite
// (`for b in build/bench/*; do $b; done`) completes in minutes on a small
// host; set these to reproduce at paper scale:
//
//   KIWI_BENCH_SIZE=1000000  KIWI_BENCH_WARMUP_MS=20000
//   KIWI_BENCH_ITER_MS=5000  KIWI_BENCH_ITERS=10
//   KIWI_BENCH_THREADS=1,2,4,8,16,32
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/map_interface.h"
#include "harness/driver.h"
#include "harness/metrics.h"
#include "harness/workload.h"
#include "obs/trace.h"

namespace kiwi::bench {

struct BenchConfig {
  /// The paper's benchmarked competitor set (§6.1).  The Ctrie analogue is
  /// built and tested but, as in the paper, not benchmarked by default
  /// (SnapTree was shown to outperform it); opt in with --maps=...,ctrie.
  std::vector<api::MapKind> maps = {
      api::MapKind::kKiWi, api::MapKind::kKaryTree, api::MapKind::kSkipList,
      api::MapKind::kSnapTree};
  std::vector<std::uint64_t> threads = {1, 2, 4};
  std::uint64_t dataset_size = 50'000;   // paper: 1M (10M for 4(c,f))
  harness::DriverOptions driver;
  std::string panel;  // free-form selector (fig4)
  /// --obs / KIWI_BENCH_OBS=1: after each KiWi run, print the map's
  /// DebugReport as an `obsjson,<figure>,<series>,<json>` row (rendered by
  /// scripts/render_results.py; schema in docs/OBSERVABILITY.md).
  bool obs = false;

  std::uint64_t KeyRange() const { return dataset_size * 2; }
};

/// Parse common flags: --maps=a,b --threads=1,2 --size=N --panel=x.
inline BenchConfig ParseArgs(int argc, char** argv) {
  BenchConfig config;
  config.dataset_size =
      harness::EnvOrU64("KIWI_BENCH_SIZE", config.dataset_size);
  if (const char* env = std::getenv("KIWI_BENCH_THREADS")) {
    harness::ParseUintList(env, &config.threads);
  }
  config.obs = harness::EnvOrU64("KIWI_BENCH_OBS", 0) != 0;
  config.driver = harness::DriverOptions::FromEnv();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* value = value_of("--maps=")) {
      config.maps.clear();
      std::string token;
      for (const char* c = value;; ++c) {
        if (*c == ',' || *c == '\0') {
          api::MapKind kind;
          if (!api::ParseMapKind(token, &kind)) {
            std::fprintf(stderr, "unknown map '%s'\n", token.c_str());
            std::exit(2);
          }
          config.maps.push_back(kind);
          token.clear();
          if (*c == '\0') break;
        } else {
          token.push_back(*c);
        }
      }
    } else if (const char* value = value_of("--threads=")) {
      if (!harness::ParseUintList(value, &config.threads)) std::exit(2);
    } else if (const char* value = value_of("--size=")) {
      config.dataset_size = std::strtoull(value, nullptr, 10);
    } else if (const char* value = value_of("--panel=")) {
      config.panel = value;
    } else if (arg == "--obs") {
      config.obs = true;
    } else if (const char* value = value_of("--trace=")) {
      config.driver.trace_path = value;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "flags: --maps=kiwi,kary,skiplist,snaptree --threads=1,2,4 "
          "--size=N --panel=X --obs --trace=<file>\nenv: KIWI_BENCH_SIZE, "
          "KIWI_BENCH_THREADS, KIWI_BENCH_WARMUP_MS, KIWI_BENCH_ITER_MS, "
          "KIWI_BENCH_ITERS, KIWI_BENCH_OBS, KIWI_BENCH_TRACE,\n     "
          "KIWI_METRICS=<interval>[:<jsonl>] (continuous telemetry, e.g. "
          "KIWI_METRICS=1s | scripts/kiwi_top.py), KIWI_METRICS_PROM=<file>\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
#if KIWI_TRACE_ENABLED
  if (!config.driver.trace_path.empty()) {
    // The driver dumps the flight recorder after every run; the crash
    // handler gives any bench failure a flight-recorder post-mortem.
    obs::trace::InstallCrashHandler();
  }
#else
  if (!config.driver.trace_path.empty()) {
    std::fprintf(stderr,
                 "--trace ignored: built with KIWI_TRACE=OFF or "
                 "KIWI_STATS=OFF\n");
  }
#endif
  return config;
}

/// If `map` is a KiWi instance and --obs is on, emit its DebugReport as one
/// machine-readable row:  obsjson,<figure>,<series>,<one-line JSON>.
/// scripts/render_results.py turns these into per-series latency tables.
/// The row is digested from the map's StatsRegistry by harness::EmitObsJson
/// — the single code path for observability reporting.
inline void EmitObsReport(const BenchConfig& config, const std::string& figure,
                          const std::string& series, api::IOrderedMap& map) {
  if (!config.obs) return;
  harness::EmitObsJson(figure, series, map);
}

inline void DescribeEnvironment(const BenchConfig& config,
                                const char* figure) {
  harness::Note(std::string(figure) + ": dataset=" +
                std::to_string(config.dataset_size) +
                " warmup_ms=" + std::to_string(config.driver.warmup_ms) +
                " iter_ms=" + std::to_string(config.driver.iteration_ms) +
                " iters=" + std::to_string(config.driver.iterations) +
                " hw_threads=" +
                std::to_string(std::thread::hardware_concurrency()));
}

}  // namespace kiwi::bench
