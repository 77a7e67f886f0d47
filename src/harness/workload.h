// Workload generation in the style of synchrobench [21], which the paper
// uses for all experiments (§6.1): operation mixes over uniform random keys
// (or a monotonically ordered stream for the §6.2 experiment), with a
// prefill phase that loads the map to its target size.
#pragma once

#include <cstdint>

#include "api/map_interface.h"
#include "common/config.h"
#include "common/random.h"

namespace kiwi::harness {

enum class OpType : std::uint8_t { kGet, kPut, kRemove, kScan };

/// One thread role's operation mix and key distribution.
struct WorkloadSpec {
  /// Operation mix; fractions must sum to 1.
  double get_fraction = 0.0;
  double put_fraction = 0.0;
  double remove_fraction = 0.0;
  double scan_fraction = 0.0;

  /// Keys are drawn uniformly from [kMinUserKey, kMinUserKey + key_range).
  std::uint64_t key_range = 2'000'000;
  /// Scans read [k, k + scan_size - 1] for a uniform lower bound k.
  std::uint64_t scan_size = 32 * 1024;
  /// Monotonically increasing keys instead of uniform (ordered workload,
  /// §6.2); each thread strides by the total thread count.
  bool ordered_keys = false;

  // -- canned mixes matching the paper's scenarios -----------------------
  static WorkloadSpec GetOnly(std::uint64_t key_range);
  /// "random writes, half inserts/updates and half deletes"
  static WorkloadSpec PutOnly(std::uint64_t key_range);
  static WorkloadSpec ScanOnly(std::uint64_t key_range,
                               std::uint64_t scan_size);
  static WorkloadSpec OrderedPuts();
};

/// Per-thread operation stream.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, std::uint64_t seed,
           std::uint64_t thread_ordinal, std::uint64_t thread_total);

  OpType NextOp();
  Key NextKey();
  std::uint64_t ScanSize() const { return spec_.scan_size; }

 private:
  WorkloadSpec spec_;
  Xoshiro256 rng_;
  // Ordered stream: thread i emits ordinal, ordinal + total, ...
  std::uint64_t ordered_next_;
  std::uint64_t ordered_stride_;
};

/// Load `map` with `count` distinct random keys (uniform in the spec's key
/// range) — the paper's "an iteration fills the map with random pairs".
void Prefill(api::IOrderedMap& map, const WorkloadSpec& spec,
             std::uint64_t count, std::uint64_t seed);

}  // namespace kiwi::harness
