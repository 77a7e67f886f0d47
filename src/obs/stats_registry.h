// Per-thread-sharded operation statistics for a KiWiMap.
//
// Counters live in cache-line-padded per-thread shards keyed off
// ThreadRegistry::CurrentSlot() — the hot-path increment is a relaxed load
// and store of an atomic on a line no other thread writes (lock-free, no
// RMW) — and are summed over all shards on read.  Latency histograms
// (histogram.h) are shared, reached only on sampled operations: SampleTick()
// elects 1 in 2^kSampleShift operations per thread, amortizing the two
// steady_clock reads a timing needs (~20ns each) to well under a nanosecond
// per operation.
//
// Compile-time gate: building with -DKIWI_NO_STATS (CMake -DKIWI_STATS=OFF)
// sets KIWI_OBS_ENABLED to 0 and the KIWI_OBS_* hook macros expand to
// nothing, so the core hot paths carry no instrumentation at all — no
// counter writes, no ticks, no clock reads, no obs symbols in core objects.
// The types here stay defined either way (tests and tools may use them
// directly); only the map wiring disappears.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/config.h"
#include "common/thread_registry.h"
#include "obs/histogram.h"

#ifndef KIWI_NO_STATS
#define KIWI_OBS_ENABLED 1
#else
#define KIWI_OBS_ENABLED 0
#endif

namespace kiwi::obs {

// Every OpCounters field, in the canonical (wire/JSON) order.  This single
// list generates the OpCounters fields, the per-thread ShardCounters atomics
// and their Aggregate() sum, the DebugReport JSON field order, the
// metrics-pump delta/rate maps, and the Prometheus metric names
// (kiwi_<name>_total), so the schema cannot drift between them.  Append new
// counters at the end of their section; docs/OBSERVABILITY.md's counter
// table is pinned against this list by tests/export_test.cpp.
#define KIWI_OBS_COUNTER_FIELDS(X)                                          \
  /* ---- client operation volume ------------------------------------- */ \
  X(puts)               /* Put() calls (excl. removes) */                   \
  X(removes)            /* Remove() calls (tombstone puts) */               \
  X(gets)               /* Get() calls */                                   \
  X(get_hits)           /* gets that found a live value */                  \
  X(scans)              /* Scan() calls */                                  \
  X(scan_keys)          /* pairs yielded across all scans */                \
  X(snapshots)          /* Snapshot views opened */                         \
  X(put_batches)        /* PutBatch() calls */                              \
  X(batch_entries)      /* entries submitted (pre-dedup) */                 \
  X(batch_bulk_entries) /* entries installed via bulk build */              \
  /* ---- KiWi internals --------------------------------------------- */ \
  X(rebalances)         /* rebalance executions (incl. helpers) */          \
  X(rebalance_wins)     /* replace-stage splice-CAS wins */                 \
  X(put_restarts)       /* puts restarted by rebalance */                   \
  X(chunks_created)                                                         \
  X(chunks_retired)                                                         \
  X(puts_helped)        /* put version installed by a scan/get */           \
  X(scans_helped)       /* scan version installed by a rebalance */         \
  /* ---- contention: retries/failures on the hot CAS loops ----------- */ \
  KIWI_OBS_RETRY_FIELDS(X)                                                  \
  X(cell_alloc_overflows) /* a write's claim came up short of room */      \
  X(locate_restarts)    /* LocateChunk restarted on a retired chunk */      \
  X(splice_helps)       /* replace-stage recursive helps of a stuck pred */

// The contention counters that tally a lost or retried CAS.  Their sum is
// the derived `retries` total every rendered counter object ends with
// (OpCounters::Retries); it is computed when rendered, never stored.
#define KIWI_OBS_RETRY_FIELDS(X)                                            \
  X(put_link_retries)   /* put phase-3 list-link CAS retries */             \
  X(ppa_publish_fails)  /* PPA publish CAS lost to freeze/help */           \
  X(engage_cas_fails)   /* rebalance stage-1 engagement CAS losses */       \
  X(freeze_cas_retries) /* PPA-freeze CAS retries (stage 2) */              \
  X(splice_retries)     /* replace-stage splice loop re-iterations */       \
  X(index_cas_retries)  /* normalize-stage index PutConditional retries */

/// Monotone operation counters: Aggregate()'s sum of the per-thread
/// ShardCounters.  Documented field-by-field in docs/OBSERVABILITY.md.
struct OpCounters {
#define KIWI_OBS_DECLARE_FIELD(name) std::uint64_t name = 0;
  KIWI_OBS_COUNTER_FIELDS(KIWI_OBS_DECLARE_FIELD)
#undef KIWI_OBS_DECLARE_FIELD

  /// Every lost or retried CAS across the put, PPA, rebalance and index
  /// hot loops: the sum of the KIWI_OBS_RETRY_FIELDS counters.
  std::uint64_t Retries() const {
#define KIWI_OBS_SUM_FIELD(name) name +
    return KIWI_OBS_RETRY_FIELDS(KIWI_OBS_SUM_FIELD) 0;
#undef KIWI_OBS_SUM_FIELD
  }

  /// Visit (name, value) for every counter in KIWI_OBS_COUNTER_FIELDS
  /// order, then ("retries", Retries()): the one field walk behind every
  /// rendered counter object (ToText, ToJson, the pump's deltas and rates).
  template <typename Visit>
  void ForEachRendered(Visit&& visit) const {
#define KIWI_OBS_VISIT_FIELD(name) visit(#name, name);
    KIWI_OBS_COUNTER_FIELDS(KIWI_OBS_VISIT_FIELD)
#undef KIWI_OBS_VISIT_FIELD
    visit("retries", Retries());
  }
};

/// One thread's counter shard: the OpCounters fields as atomics, because
/// Aggregate() (the metrics pump, DebugReport) reads them while their owner
/// writes.  Only the owning thread writes a shard, so Add is a relaxed load
/// plus a relaxed store, never a locked read-modify-write.
struct ShardCounters {
#define KIWI_OBS_DECLARE_FIELD(name) std::atomic<std::uint64_t> name{0};
  KIWI_OBS_COUNTER_FIELDS(KIWI_OBS_DECLARE_FIELD)
#undef KIWI_OBS_DECLARE_FIELD

  /// The owner's update of one of its own fields.
  static void Add(std::atomic<std::uint64_t>& field, std::uint64_t n) {
    field.store(field.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
  }

  /// Adds a relaxed reading of every field to `total`.
  void AddTo(OpCounters& total) const {
#define KIWI_OBS_ADD_FIELD(name) \
  total.name += name.load(std::memory_order_relaxed);
    KIWI_OBS_COUNTER_FIELDS(KIWI_OBS_ADD_FIELD)
#undef KIWI_OBS_ADD_FIELD
  }
};

// Every latency distribution a map maintains, as X(id, name) in Latency
// order: the id is the enumerator, the name the stable short name in
// DebugReport's text and JSON output and the metrics pump's `op` label.
// put/get/scan time whole client operations (sampled); the rebalance
// entries time every execution of the whole procedure and of each §3.3.2
// stage.  docs/OBSERVABILITY.md's latency table is pinned against this
// list by tests/export_test.cpp.
#define KIWI_OBS_LATENCY_METRICS(X)                                     \
  X(kPut, "put")                                                        \
  X(kGet, "get")                                                        \
  X(kScan, "scan")                                                      \
  X(kRebalance, "rebalance")                 /* whole Rebalance() */    \
  X(kRebalanceEngage, "rebalance_engage")    /* stage 1 */              \
  X(kRebalanceFreeze, "rebalance_freeze")    /* stage 2 */              \
  X(kRebalanceBuild, "rebalance_build")      /* stages 3-4 */           \
  X(kRebalanceReplace, "rebalance_replace")  /* stage 5 */              \
  X(kRebalanceIndex, "rebalance_index")      /* stages 6-7 */

enum class Latency : std::size_t {
#define KIWI_OBS_LATENCY_ID(id, name) id,
  KIWI_OBS_LATENCY_METRICS(KIWI_OBS_LATENCY_ID)
#undef KIWI_OBS_LATENCY_ID
  kCount_,
};

inline constexpr std::size_t kLatencyCount =
    static_cast<std::size_t>(Latency::kCount_);

inline const char* LatencyName(Latency metric) {
  static constexpr const char* kNames[] = {
#define KIWI_OBS_LATENCY_NAME(id, name) name,
      KIWI_OBS_LATENCY_METRICS(KIWI_OBS_LATENCY_NAME)
#undef KIWI_OBS_LATENCY_NAME
  };
  return metric < Latency::kCount_ ? kNames[static_cast<std::size_t>(metric)]
                                   : "?";
}

class StatsRegistry {
 public:
  /// Sampling period for hot-path latency timers: 1 in 2^kSampleShift
  /// operations per thread is timed.
  static constexpr unsigned kSampleShift = 6;

  /// The calling thread's counter shard.  Only this thread writes it
  /// (ShardCounters::Add); others read it, relaxed, through Aggregate.
  ShardCounters& Local() {
    return shards_[ThreadRegistry::CurrentSlot()].counters;
  }

  /// Sum of every shard.  Counters are monotone per shard, so concurrent
  /// aggregation yields a value between two quiescent readings.
  OpCounters Aggregate() const {
    OpCounters total;
    for (const Shard& shard : shards_) shard.counters.AddTo(total);
    return total;
  }

  /// True for 1 operation in 2^kSampleShift on the calling thread.
  bool SampleTick() {
    Shard& shard = shards_[ThreadRegistry::CurrentSlot()];
    return (++shard.sample_tick & ((1u << kSampleShift) - 1)) == 0;
  }

  LatencyHistogram& Hist(Latency metric) {
    return histograms_[static_cast<std::size_t>(metric)];
  }
  const LatencyHistogram& Hist(Latency metric) const {
    return histograms_[static_cast<std::size_t>(metric)];
  }

 private:
  struct alignas(kCacheLineSize) Shard {
    ShardCounters counters;
    std::uint64_t sample_tick = 0;
  };
  Shard shards_[kMaxThreads];
  LatencyHistogram histograms_[kLatencyCount];
};

/// RAII span timer: records the elapsed nanoseconds into `hist` on scope
/// exit.  Construct with nullptr to make it a no-op (the sampled-out case) —
/// then no clock is read at all.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    hist_->Record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Whether this timer records (false for the sampled-out case).
  bool Sampled() const { return hist_ != nullptr; }

 private:
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace kiwi::obs

// ---- hook macros ------------------------------------------------------
// The core hot paths are instrumented exclusively through these, so a
// KIWI_STATS=OFF build compiles every hook away (the macro arguments are
// dropped unevaluated).
#if KIWI_OBS_ENABLED
/// Add 1 / `n` to a counter field of the calling thread's shard.
#define KIWI_OBS_INC(registry, field) \
  ::kiwi::obs::ShardCounters::Add((registry).Local().field, 1)
#define KIWI_OBS_ADD(registry, field, n)                      \
  ::kiwi::obs::ShardCounters::Add((registry).Local().field, \
                                  static_cast<std::uint64_t>(n))
/// Unconditionally time the enclosing scope into `metric`.
#define KIWI_OBS_TIMER(registry, metric, var) \
  ::kiwi::obs::ScopedTimer var(&(registry).Hist(metric))
/// Time the enclosing scope for 1 in 2^kSampleShift calls per thread.
#define KIWI_OBS_SAMPLED_TIMER(registry, metric, var) \
  ::kiwi::obs::ScopedTimer var(                       \
      (registry).SampleTick() ? &(registry).Hist(metric) : nullptr)
/// Whether the KIWI_OBS_SAMPLED_TIMER `var` sampled this operation — the
/// one sampling decision its flight-recorder events follow too.
#define KIWI_OBS_SAMPLED(var) ((var).Sampled())
#else
#define KIWI_OBS_INC(registry, field) ((void)0)
#define KIWI_OBS_ADD(registry, field, n) ((void)0)
#define KIWI_OBS_TIMER(registry, metric, var) ((void)0)
#define KIWI_OBS_SAMPLED_TIMER(registry, metric, var) ((void)0)
#define KIWI_OBS_SAMPLED(var) false
#endif
