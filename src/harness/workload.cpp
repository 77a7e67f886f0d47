#include "harness/workload.h"

#include <cmath>

#include "common/assert.h"

namespace kiwi::harness {

WorkloadSpec WorkloadSpec::GetOnly(std::uint64_t key_range) {
  WorkloadSpec spec;
  spec.get_fraction = 1.0;
  spec.key_range = key_range;
  return spec;
}

WorkloadSpec WorkloadSpec::PutOnly(std::uint64_t key_range) {
  WorkloadSpec spec;
  spec.put_fraction = 0.5;
  spec.remove_fraction = 0.5;
  spec.key_range = key_range;
  return spec;
}

WorkloadSpec WorkloadSpec::ScanOnly(std::uint64_t key_range,
                                    std::uint64_t scan_size) {
  WorkloadSpec spec;
  spec.scan_fraction = 1.0;
  spec.key_range = key_range;
  spec.scan_size = scan_size;
  return spec;
}

WorkloadSpec WorkloadSpec::OrderedPuts() {
  WorkloadSpec spec;
  spec.put_fraction = 1.0;
  spec.ordered_keys = true;
  spec.key_range = ~std::uint64_t{0} >> 2;  // effectively unbounded
  return spec;
}

OpStream::OpStream(const WorkloadSpec& spec, std::uint64_t seed,
                   std::uint64_t thread_ordinal, std::uint64_t thread_total)
    : spec_(spec),
      rng_(seed * 0x9E3779B97F4A7C15ULL + thread_ordinal + 1),
      ordered_next_(thread_ordinal),
      ordered_stride_(thread_total) {
  const double total = spec.get_fraction + spec.put_fraction +
                       spec.remove_fraction + spec.scan_fraction;
  KIWI_ASSERT(std::abs(total - 1.0) < 1e-9, "op mix must sum to 1");
}

OpType OpStream::NextOp() {
  const double draw = rng_.NextDouble();
  if (draw < spec_.get_fraction) return OpType::kGet;
  if (draw < spec_.get_fraction + spec_.put_fraction) return OpType::kPut;
  if (draw <
      spec_.get_fraction + spec_.put_fraction + spec_.remove_fraction) {
    return OpType::kRemove;
  }
  return OpType::kScan;
}

Key OpStream::NextKey() {
  if (spec_.ordered_keys) {
    const Key key = kMinUserKey + static_cast<Key>(ordered_next_);
    ordered_next_ += ordered_stride_;
    return key;
  }
  return kMinUserKey + static_cast<Key>(rng_.NextBounded(spec_.key_range));
}

void Prefill(api::IOrderedMap& map, const WorkloadSpec& spec,
             std::uint64_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x2545F4914F6CDD1DULL + 7);
  // Random inserts until the target size is reached; duplicates overwrite,
  // so draw ~count * range/(range-count)-ish extra attempts and stop by
  // counting actual size growth cheaply via a local set-free heuristic:
  // with range = 2 * count the expected attempts are ~1.39 * count, so just
  // loop on inserted-counting with a bitmap-free approach — insert until
  // `count` *distinct* keys were drawn, tracked by a dense bitmap when the
  // range is small enough, otherwise by accepting the approximation.
  if (spec.key_range <= (std::uint64_t{1} << 28)) {
    std::vector<bool> seen(spec.key_range, false);
    std::uint64_t inserted = 0;
    while (inserted < count) {
      const std::uint64_t offset = rng.NextBounded(spec.key_range);
      map.Put(kMinUserKey + static_cast<Key>(offset),
              static_cast<Value>(offset));
      if (!seen[offset]) {
        seen[offset] = true;
        ++inserted;
      }
    }
  } else {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t offset = rng.NextBounded(spec.key_range);
      map.Put(kMinUserKey + static_cast<Key>(offset),
              static_cast<Value>(offset));
    }
  }
}

}  // namespace kiwi::harness
