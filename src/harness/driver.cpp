#include "harness/driver.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/assert.h"
#include "common/barrier.h"
#include "harness/metrics.h"
#include "obs/trace.h"

namespace kiwi::harness {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

std::uint64_t EnvOrU64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

const RoleResult& RunResult::Role(const std::string& name) const {
  for (const RoleResult& role : roles) {
    if (role.name == name) return role;
  }
  KIWI_ASSERT(false, "unknown role name");
  return roles.front();
}

DriverOptions DriverOptions::FromEnv(DriverOptions defaults) {
  defaults.warmup_ms = EnvOrU64("KIWI_BENCH_WARMUP_MS", defaults.warmup_ms);
  defaults.iteration_ms =
      EnvOrU64("KIWI_BENCH_ITER_MS", defaults.iteration_ms);
  defaults.iterations = static_cast<std::uint32_t>(
      EnvOrU64("KIWI_BENCH_ITERS", defaults.iterations));
  if (const char* env = std::getenv("KIWI_BENCH_TRACE");
      env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) {
    defaults.trace_path = std::strcmp(env, "1") == 0 ? "kiwi_trace.json" : env;
  }
  return defaults;
}

RunResult RunWorkload(api::IOrderedMap& map, const std::vector<Role>& roles,
                      const DriverOptions& options) {
  KIWI_ASSERT(!roles.empty(), "need at least one role");

  // Continuous telemetry opt-in: KIWI_METRICS=<interval>[:<path>] streams
  // JSONL samples for the run (no-op when unset, already running, or the
  // map is not KiWi).  The map's destructor stops the pump.
  StartEnvMetricsPump(map);

  if (options.initial_size > 0) {
    Prefill(map, roles.front().spec, options.initial_size, options.seed);
  }

  std::size_t total_threads = 0;
  for (const Role& role : roles) total_threads += role.threads;
  KIWI_ASSERT(total_threads >= 1 && total_threads < kMaxThreads,
              "thread count exceeds the map's kMaxThreads budget");

  // Phase control: 0 = warmup, 1..iterations = measured, stop afterwards.
  // Workers spin on `phase_` and flush per-phase counters through the
  // matching slot of their counter arrays, so the control thread never
  // blocks the workers.
  std::atomic<int> phase{-1};
  std::atomic<bool> stop{false};
  const std::uint32_t iterations = options.iterations;

  struct alignas(kCacheLineSize) WorkerCounters {
    std::vector<std::uint64_t> ops;   // per phase
    std::vector<std::uint64_t> keys;  // per phase
  };
  std::vector<WorkerCounters> counters(total_threads);
  for (auto& c : counters) {
    c.ops.assign(iterations + 1, 0);
    c.keys.assign(iterations + 1, 0);
  }

  std::vector<std::thread> workers;
  workers.reserve(total_threads);
  SpinBarrier barrier(total_threads + 1);

  std::size_t ordinal = 0;
  for (const Role& role : roles) {
    for (std::size_t t = 0; t < role.threads; ++t, ++ordinal) {
      workers.emplace_back([&, ordinal, role_spec = role.spec,
                            role_t = t, role_threads = role.threads] {
        OpStream stream(role_spec, options.seed + ordinal, role_t,
                        role_threads);
        std::vector<api::IOrderedMap::Entry> scan_buffer;
        WorkerCounters& mine = counters[ordinal];
        barrier.ArriveAndWait();
        int observed_phase = -1;  // ops before warmup-start are discarded
        std::uint64_t ops = 0;
        std::uint64_t keys = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const int now = phase.load(std::memory_order_acquire);
          if (now != observed_phase) {
            if (observed_phase >= 0 &&
                static_cast<std::size_t>(observed_phase) < mine.ops.size()) {
              mine.ops[observed_phase] = ops;
              mine.keys[observed_phase] = keys;
            }
            ops = keys = 0;
            observed_phase = now;
            if (now < 0) break;
          }
          const OpType op = stream.NextOp();
          const Key key = stream.NextKey();
          switch (op) {
            case OpType::kGet:
              map.Get(key);
              keys += 1;
              break;
            case OpType::kPut:
              map.Put(key, static_cast<Value>(key) + 1);
              keys += 1;
              break;
            case OpType::kRemove:
              map.Remove(key);
              keys += 1;
              break;
            case OpType::kScan: {
              const Key to = key + static_cast<Key>(stream.ScanSize()) - 1;
              keys += map.Scan(key, to, scan_buffer);
              break;
            }
          }
          ++ops;
        }
        // Flush whatever phase was live when stop arrived.
        if (observed_phase >= 0 &&
            static_cast<std::size_t>(observed_phase) < mine.ops.size()) {
          mine.ops[observed_phase] = ops;
          mine.keys[observed_phase] = keys;
        }
      });
    }
  }

  const auto sleep_ms = [](std::uint64_t ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };

  barrier.ArriveAndWait();
  phase.store(0, std::memory_order_release);  // warmup
  sleep_ms(options.warmup_ms);

  std::vector<double> iteration_seconds(iterations);
  for (std::uint32_t i = 0; i < iterations; ++i) {
    const auto start = Clock::now();
    phase.store(static_cast<int>(i) + 1, std::memory_order_release);
    sleep_ms(options.iteration_ms);
    iteration_seconds[i] =
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  phase.store(-2, std::memory_order_release);
  stop.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();

  RunResult result;
  ordinal = 0;
  for (const Role& role : roles) {
    RoleResult role_result;
    role_result.name = role.name;
    role_result.threads = role.threads;
    for (std::size_t t = 0; t < role.threads; ++t, ++ordinal) {
      for (std::uint32_t i = 1; i <= iterations; ++i) {
        role_result.ops += counters[ordinal].ops[i];
        role_result.keys += counters[ordinal].keys[i];
      }
    }
    for (std::uint32_t i = 0; i < iterations; ++i) {
      role_result.seconds += iteration_seconds[i];
    }
    result.roles.push_back(std::move(role_result));
  }

  if (options.measure_memory) {
    map.DrainDeferredMemory();
    result.memory_bytes = map.MemoryFootprint();
  }

#if KIWI_TRACE_ENABLED
  // Dump the flight recorder now that every worker joined, so the export is
  // exact.  Each run overwrites the file; the rings hold only the newest
  // events anyway.
  if (!options.trace_path.empty() &&
      !obs::trace::DumpTraceToFile(options.trace_path.c_str())) {
    std::fprintf(stderr, "trace: cannot write %s\n",
                 options.trace_path.c_str());
  }
#endif
  return result;
}

}  // namespace kiwi::harness
