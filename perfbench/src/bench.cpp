#include "bench.h"

#include <pthread.h>
#include <sched.h>

namespace perfbench {

double ClockCostNs() {
  std::vector<std::uint64_t> deltas;
  for (int rep = 0; rep < 1001; ++rep) {
    const std::uint64_t a = NowNs();
    const std::uint64_t b = NowNs();
    deltas.push_back(b - a);
  }
  return Quantile(deltas, 0.5);
}

bool PinToCpu(std::size_t index) {
  // The CPUs the process may use, read once before any thread is pinned (a
  // thread started after its parent pinned itself inherits one CPU).
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  const int count = CPU_COUNT(&allowed);
  if (count <= 0) return false;
  // Counted from the highest-numbered CPU down: the lowest ones tend to take
  // the device interrupts.
  int want = static_cast<int>(index % static_cast<std::size_t>(count));
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (want-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  return false;
}

void Summarize(const std::vector<const Tally*>& tallies, Result* result) {
  const std::size_t slices = tallies.empty() ? 0 : tallies[0]->slices.size();
  std::vector<double> read_rate;
  std::vector<double> write_rate;
  for (std::size_t s = 0; s < slices; ++s) {
    SliceTally sum;
    for (const Tally* t : tallies) {
      const SliceTally& x = t->slices[s];
      sum.read_ns += x.read_ns;
      sum.read_keys += x.read_keys;
      sum.write_ns += x.write_ns;
      sum.write_keys += x.write_keys;
    }
    if (sum.read_ns > 0) {
      read_rate.push_back(static_cast<double>(sum.read_keys) * 1e9 /
                          static_cast<double>(sum.read_ns));
    }
    if (sum.write_ns > 0) {
      write_rate.push_back(static_cast<double>(sum.write_keys) * 1e9 /
                           static_cast<double>(sum.write_ns));
    }
  }
  const auto per_slice = [](const char* what,
                            const std::vector<double>& rates) {
    std::string line = std::string(what) + " keys/s per slice (k):";
    for (double r : rates) line += " " + std::to_string(std::lround(r / 1000));
    return line;
  };
  result->notes.push_back(per_slice("read", read_rate));
  result->notes.push_back(per_slice("write", write_rate));
  result->read_keys_per_s = Quantile(read_rate, 0.5);
  result->write_keys_per_s = Quantile(write_rate, 0.5);
  std::vector<std::uint32_t> read_lat;
  std::vector<std::uint32_t> write_lat;
  for (const Tally* t : tallies) {
    read_lat.insert(read_lat.end(), t->read_lat_ns.begin(),
                    t->read_lat_ns.end());
    write_lat.insert(write_lat.end(), t->write_lat_ns.begin(),
                     t->write_lat_ns.end());
    result->attempted += t->attempted;
    result->failed += t->failed;
  }
  result->read_p50_us = Quantile(read_lat, 0.5) * 1e-3;
  result->read_p99_us = Quantile(read_lat, 0.99) * 1e-3;
  result->read_samples = read_lat.size();
  result->write_p50_us = Quantile(write_lat, 0.5) * 1e-3;
  result->write_p99_us = Quantile(write_lat, 0.99) * 1e-3;
  result->write_samples = write_lat.size();
}

}  // namespace perfbench
