// Chunk-health census: one O(chunks) epoch-guarded walk of the chunk list,
// summarizing per-chunk structural health — fill factor, sorted-prefix vs
// linked-suffix ratio, rebalance state, age — into fixed-bucket distribution
// histograms cheap enough to ship on every metrics-pump tick.
//
// The census is a *structure* observation like DebugReport's gauges: it is
// live regardless of KIWI_STATS (nothing here touches the counter shards).
// KiWiMap::Census() is defined in census.cpp so core objects stay obs-free.
//
// The JSON schema emitted by ToJson() is documented in docs/OBSERVABILITY.md
// ("The chunk-health census"); change them together.
#pragma once

#include <array>
#include <cstdint>
#include <string>

// Every integer ChunkCensus scalar, in the canonical (wire/JSON) order.
// This list declares them and drives ToJson, DebugReport::ToText and the
// Prometheus gauge names (kiwi_census_<name>); the double means and the
// decile histograms are declared and rendered explicitly after it.
#define KIWI_OBS_CENSUS_FIELDS(X)                                           \
  /* ---- population --------------------------------------------------- */ \
  X(chunks)               /* data chunks walked (sentinel excluded) */      \
  X(infant)               /* status counts at observation time... */        \
  X(normal)                                                                 \
  X(frozen)                                                                 \
  /* Chunks engaged in a still-running rebalance (ro set, not done): the    \
     "pending rebalance" population.  Frozen-but-done chunks are retired    \
     stragglers a guard still pins; they count under `frozen` only. */      \
  X(engaged)                                                                \
  /* ---- cells -------------------------------------------------------- */ \
  X(allocated_cells)      /* cells handed out across chunks */              \
  X(batched_cells)        /* cells in binary-searchable prefixes */         \
  /* ---- byte arenas: KiWiByteMap only (int64 chunks carry none) ------ */ \
  X(arena_used_bytes)     /* claimed bytes across chunks */                 \
  X(arena_capacity_bytes) /* total arena bytes provisioned */               \
  /* Pool-rounded slab bytes of the walked chunks: the chunk part of        \
     KiWiMap::MemoryFootprint(), so DebugReport's memory_bytes gauge needs  \
     no second walk. */                                                     \
  X(slab_bytes)                                                             \
  /* Chunk age (steady-clock ns since Chunk::Create).  Age extremes spot    \
     both churn (max ≈ 0: nothing survives) and stagnation (a hot chunk     \
     that never rebalances). */                                             \
  X(age_min_ns)                                                             \
  X(age_max_ns)

namespace kiwi::obs {

/// One walk's aggregate.  All ratios are per-chunk values bucketed into
/// deciles: bucket i of fill_hist counts chunks with fill factor in
/// [i/10, (i+1)/10), except the last bucket which is closed at 1.0 (and
/// absorbs overfull chunks whose k_counter ran past capacity).
struct ChunkCensus {
  static constexpr std::size_t kDecileBuckets = 10;

#define KIWI_OBS_DECLARE_CENSUS(name) std::uint64_t name = 0;
  KIWI_OBS_CENSUS_FIELDS(KIWI_OBS_DECLARE_CENSUS)
#undef KIWI_OBS_DECLARE_CENSUS

  /// Per-chunk means of the two ratios bucketed below: fill factor
  /// (allocated / capacity) and sorted-prefix share (batched / allocated,
  /// empty chunks count as 1).  Zero when there are no data chunks.
  double avg_fill = 0;
  double batched_ratio = 0;
  double age_mean_ns = 0;  // mean chunk age (see age_min_ns)

  // ---- distributions ------------------------------------------------------
  /// Fill factor per chunk (allocated / capacity), deciles.
  std::array<std::uint64_t, kDecileBuckets> fill_hist{};
  /// Sorted-prefix share per chunk (batched / allocated; empty chunks count
  /// as fully batched), deciles.  A left-leaning distribution means lookups
  /// are degenerating into linear list walks and rebalance is overdue.
  std::array<std::uint64_t, kDecileBuckets> batched_hist{};
  /// Arena fill per arena-bearing chunk (used / capacity), deciles.  Counts
  /// only chunks with a non-zero arena, so it stays all-zero for int64 maps.
  /// A chunk whose arena fills before its cell array still rebalances — a
  /// right-heavy arena_hist with a left-heavy fill_hist means values are
  /// outsizing the configured ByteConfig::arena_bytes_per_cell.
  std::array<std::uint64_t, kDecileBuckets> arena_hist{};

  /// Decile index (0..9) for a ratio in [0, 1]; out-of-range clamps.
  static std::size_t DecileFor(double ratio) {
    if (ratio <= 0) return 0;
    if (ratio >= 1) return kDecileBuckets - 1;
    return static_cast<std::size_t>(ratio * kDecileBuckets);
  }

  /// One-line JSON object (no trailing newline); schema in
  /// docs/OBSERVABILITY.md.
  std::string ToJson() const;
};

}  // namespace kiwi::obs
