// DebugReport: one consistent-enough snapshot of everything a KiWiMap
// exposes about itself — operation counters, latency distributions, the
// chunk census and structural-health gauges — renderable as human-readable
// text or as a single JSON line for machine consumption (bench output, the
// metrics pump, dashboards).
//
// The exact meaning of every field and the JSON schema are documented in
// docs/OBSERVABILITY.md; keep the two in sync.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/census.h"
#include "obs/stats_registry.h"

// Every DebugReport gauge, in the canonical (wire/JSON) order.  Like
// KIWI_OBS_COUNTER_FIELDS, this single list drives ToText, ToJson, the
// metrics pump, and the Prometheus gauge names (kiwi_<name>).  A row without
// a DebugReport::Gauges field fails to compile in report.cpp; a field
// without a row is rendered nowhere.
#define KIWI_OBS_GAUGE_FIELDS(X) \
  X(psa_active)                  \
  X(snapshot_pins)               \
  X(ebr_pending)                 \
  X(ebr_pending_bytes)           \
  X(ebr_epoch)                   \
  X(ebr_epoch_lag)               \
  X(global_version)              \
  X(memory_bytes)                \
  X(pool_hits)                   \
  X(pool_misses)                 \
  X(pool_recycled)               \
  X(pool_class_retries)          \
  X(pool_live_bytes)             \
  X(pool_pooled_bytes)

namespace kiwi::obs {

/// Percentile digest of one latency histogram, in nanoseconds.
struct LatencySummary {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t max = 0;
  double mean_ns = 0;
};

struct DebugReport {
  /// False in a KIWI_STATS=OFF build: counters and latency are all zero
  /// then, but the census and gauges (computed on demand) remain live.
  bool stats_enabled = false;

  /// Aggregated over all thread shards (see StatsRegistry::Aggregate).
  OpCounters counters;

  /// Indexed by obs::Latency.  Hot-path entries (put/get/scan) reflect a
  /// 1-in-2^kSampleShift sample of operations; rebalance entries reflect
  /// every execution.
  std::array<LatencySummary, kLatencyCount> latency{};

  /// Chunk structure (counts, cells, fill and sorted-prefix distributions,
  /// arenas, ages) from the report's one chunk-list walk.
  ChunkCensus census;

  /// Structural health outside the chunk list, computed at report time.
  struct Gauges {
    std::uint64_t psa_active = 0;       // in-flight transient scan entries
    std::uint64_t snapshot_pins = 0;    // open Snapshot-view read points
    std::uint64_t ebr_pending = 0;      // retired, not-yet-freed objects
    std::uint64_t ebr_pending_bytes = 0;  // bytes in EBR limbo
    std::uint64_t ebr_epoch = 0;        // current global epoch
    std::uint64_t ebr_epoch_lag = 0;    // epoch minus slowest active guard
    std::uint64_t global_version = 0;   // GV (scans performed + 1)
    std::uint64_t memory_bytes = 0;     // == KiWiMap::MemoryFootprint()
    // Slab-pool recycling (see src/reclaim/pool.h).  hits/misses are
    // monotone allocation counters; the byte gauges split the pool's view
    // of memory into handed-out (live) vs idle recycled stock (pooled).
    std::uint64_t pool_hits = 0;         // allocations served from the pool
    std::uint64_t pool_misses = 0;       // allocations that went to the OS
    std::uint64_t pool_recycled = 0;     // slabs captured for reuse
    std::uint64_t pool_class_retries = 0;  // lost size-class registry CASes
    std::uint64_t pool_live_bytes = 0;   // slab bytes handed out, unreturned
    std::uint64_t pool_pooled_bytes = 0;  // idle slab bytes held for reuse
  } gauges;

  /// Multi-line human-readable rendering (for terminals and logs).
  std::string ToText() const;

  /// One-line JSON rendering; schema in docs/OBSERVABILITY.md.
  std::string ToJson() const;

  /// The report's JSON members ("stats_enabled" through "census"), without
  /// braces or schema tag: the body of ToJson and the tail of the metrics
  /// pump's JSONL line.
  void AppendJsonFields(std::string& out) const;
};

}  // namespace kiwi::obs
