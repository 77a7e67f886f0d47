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

// Every DebugReport gauge, in the canonical (wire/JSON) order: structural
// health outside the chunk list, computed at report time.  Like
// KIWI_OBS_COUNTER_FIELDS, this single list declares DebugReport::Gauges
// and drives ToText, ToJson, the metrics pump, and the Prometheus gauge
// names (kiwi_<name>).
#define KIWI_OBS_GAUGE_FIELDS(X)                                            \
  X(psa_active)         /* in-flight transient scan entries */              \
  X(snapshot_pins)      /* open Snapshot-view read points */                \
  X(ebr_pending)        /* retired, not-yet-freed objects */                \
  X(ebr_pending_bytes)  /* bytes in EBR limbo */                            \
  X(ebr_epoch)          /* current global epoch */                          \
  X(ebr_epoch_lag)      /* epoch minus slowest active guard */              \
  X(global_version)     /* GV (scans performed + 1) */                      \
  X(memory_bytes)       /* == KiWiMap::MemoryFootprint() */                 \
  /* ---- slab-pool recycling (src/reclaim/pool.h): hits and misses are     \
     monotone allocation counters; the byte gauges split the pool's view    \
     of memory into handed-out (live) vs idle recycled stock (pooled) */    \
  X(pool_hits)          /* allocations served from the pool */              \
  X(pool_misses)        /* allocations that went to the OS */               \
  X(pool_recycled)      /* slabs captured for reuse */                      \
  X(pool_class_retries) /* lost size-class registry CASes */                \
  X(pool_live_bytes)    /* slab bytes handed out, unreturned */             \
  X(pool_pooled_bytes)  /* idle slab bytes held for reuse */

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

  /// Structural health outside the chunk list: KIWI_OBS_GAUGE_FIELDS.
  struct Gauges {
#define KIWI_OBS_DECLARE_GAUGE(name) std::uint64_t name = 0;
    KIWI_OBS_GAUGE_FIELDS(KIWI_OBS_DECLARE_GAUGE)
#undef KIWI_OBS_DECLARE_GAUGE
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
