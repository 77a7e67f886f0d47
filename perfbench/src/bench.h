// Shared pieces of the KiWi benchmark: the clock, CPU pinning, the seeded
// input generator, per-slice call tallies, spans, and the result record the
// workloads fill in.  See perfbench/README.md for what is measured and why.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median cost of one NowNs() call, measured back to back.  Replayed phases
/// are each bracketed by clock reads, so this is subtracted from them.
double ClockCostNs();

/// Pins the calling thread to the `index`-th CPU the process may run on,
/// counting down from the highest-numbered one (wrapping around).  Returns
/// false if pinning is not possible.
bool PinToCpu(std::size_t index);

/// The benchmark's own input generator (xoshiro256**), so the inputs depend
/// only on the seed, never on library code.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& word : s_) word = SplitMix(seed);
  }
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, bound).
  std::uint64_t Below(std::uint64_t bound) {
    __extension__ using u128 = unsigned __int128;
    return static_cast<std::uint64_t>((u128{Next()} * bound) >> 64);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  static std::uint64_t SplitMix(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Derives an independent stream seed for one purpose of one run.
inline std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t state = seed * 0x100000001b3ULL + purpose;
  return Rng::SplitMix(state);
}

/// Zipf(1) sampler over ranks [0, n) by inverse CDF lookup.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Draw(Rng& rng) const {
    const double u = rng.Unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Time and work inside the map's read and write calls during one slice of
/// the measured window.
struct SliceTally {
  std::uint64_t read_ns = 0;
  std::uint64_t read_keys = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t write_ns = 0;
  std::uint64_t write_keys = 0;
  std::uint64_t write_calls = 0;
};

/// One client thread's record of the measured window.
struct Tally {
  explicit Tally(std::size_t slice_count = 0) : slices(slice_count) {}
  std::vector<SliceTally> slices;
  /// Per-call latencies (ns) of the timed sample of calls.
  std::vector<std::uint32_t> read_lat_ns;
  std::vector<std::uint32_t> write_lat_ns;
  /// Operations whose result was checked, and those that failed the check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Appends another window's record (a later round of the same client).
  void Append(const Tally& other) {
    slices.insert(slices.end(), other.slices.begin(), other.slices.end());
    read_lat_ns.insert(read_lat_ns.end(), other.read_lat_ns.begin(),
                       other.read_lat_ns.end());
    write_lat_ns.insert(write_lat_ns.end(), other.write_lat_ns.begin(),
                        other.write_lat_ns.end());
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// A latency sample in ns, clamped to 32 bits.
inline std::uint32_t LatencySample(std::uint64_t ns) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX));
}

/// The measured window: [start, start + slices * slice_ns), cut into equal
/// slices so that each rate is a median over slices.
struct Window {
  std::uint64_t start_ns = 0;
  std::uint64_t slice_ns = 0;
  std::size_t slices = 0;
  /// Slice holding `t`, or `slices` once the window is over.  Times before
  /// the window (warm-up) map to `slices` + 1.
  std::size_t SliceOf(std::uint64_t t) const {
    if (t < start_ns) return slices + 1;
    return std::min<std::size_t>((t - start_ns) / slice_ns, slices);
  }
};

/// One timed interval, kept in memory and written out once at exit.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: none
  std::uint32_t trace = 0;   // shared by the spans of one sampled call
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-thread span log.  Ids are unique across threads: each log owns the
/// ids congruent to its base modulo kIdStride.
class SpanLog {
 public:
  static constexpr std::uint32_t kIdStride = 8;
  explicit SpanLog(std::uint32_t base = 1) : next_(base) {}
  std::uint32_t NextId() {
    const std::uint32_t id = next_;
    next_ += kIdStride;
    return id;
  }
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& Spans() const { return spans_; }

 private:
  std::uint32_t next_;
  std::vector<Span> spans_;
};

/// What a workload run reports.  Metrics that cannot be measured in this
/// build (a KIWI_STATS=OFF build has no counters) are NaN and print as
/// "unavailable".
struct Result {
  // End-to-end, from the untraced run.
  double write_keys_per_s = 0;
  double write_p50_us = 0;
  double write_p99_us = 0;
  std::size_t write_samples = 0;
  double read_keys_per_s = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
  std::size_t read_samples = 0;
  double bytes_per_key = 0;
  double setup_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Per-layer metrics (traced run), in print order.
  std::vector<std::pair<std::string, double>> layers;
  /// Spans recorded by the traced run.
  std::vector<Span> spans;
  /// Free-form lines for the human-readable report.
  std::vector<std::string> notes;
};

inline constexpr double kUnavailable = std::numeric_limits<double>::quiet_NaN();

/// q-quantile (0..1) of `values` by nearest rank; 0 for an empty input.
template <typename T>
double Quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0;
  const std::size_t n = values.size();
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return static_cast<double>(values[rank - 1]);
}

/// Fills the end-to-end rates and latencies of `result` from the tallies of
/// every client: a rate is keys per second of time inside calls, summed over
/// clients per slice and then taken as the median over slices.
void Summarize(const std::vector<const Tally*>& tallies, Result* result);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test: corrupts every expected value, so every checked call must
  /// count as failed.
  bool sabotage = false;
};

Result RunAnalytics(const Options& options);
Result RunIngest(const Options& options);

}  // namespace perfbench
