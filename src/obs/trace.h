// Flight recorder: always-on, lock-free, per-thread event tracing.
//
// Aggregates (stats_registry.h) answer "how much / how slow on average";
// they cannot explain an *individual* anomaly — one p999 scan stall, one
// rebalance that looped through engage/freeze helping, one double-retire
// abort.  The flight recorder keeps the causally ordered recent history
// needed for that: every thread owns a fixed-size ring of compact binary
// events (32 bytes each: tsc timestamp, event id, thread id, two u64
// arguments), written with plain stores to memory no other thread writes.
// The newest events win; nothing ever blocks or allocates on the hot path.
//
// Consumers (all in trace.cpp):
//  * DumpTrace() / DumpTraceToFile() — merge the rings by timestamp into
//    Chrome trace-event JSON (loadable in Perfetto / chrome://tracing):
//    rebalances become duration spans keyed by rebalance object, their
//    stage transitions nested instants, operations sampled instants.
//  * InstallCrashHandler() — SIGABRT/SIGSEGV/SIGBUS/SIGILL + kiwi::Fatal
//    hook that writes the last-N merged events (plus a registered
//    DebugReport callback) to stderr, turning an invariant abort into an
//    actionable post-mortem.
//
// Compile-time gate: KIWI_TRACE=OFF (or KIWI_STATS=OFF, which removes the
// whole obs layer) defines KIWI_NO_TRACE; the KIWI_TRACE_* macros then
// expand to nothing and no kiwi::obs::trace symbol survives in any object
// (CI checks with `nm`, mirroring the KIWI_STATS=OFF check).
//
// Event cost when ON: one thread-local ring lookup, one rdtsc, four plain
// stores — ~4-6 ns.  Hot-path operation events are recorded only for the
// operations the map's latency timers sample (1 in 64 per thread and map,
// see KIWI_OBS_SAMPLED), so puts/gets/scans pay amortized well under a
// nanosecond and every traced operation has a timed twin; rebalance /
// reclamation / fatal events are always recorded (they are rare and each
// one matters).  See docs/OBSERVABILITY.md for the event schema and
// ring-sizing guidance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "common/config.h"
#include "common/thread_registry.h"

#if !defined(KIWI_NO_STATS) && !defined(KIWI_NO_TRACE)
#define KIWI_TRACE_ENABLED 1
#else
#define KIWI_TRACE_ENABLED 0
#endif

// Every flight-recorder event, one row each, in id order after Ev::kNone = 0
// (append new rows at the end):  X(id, name, hex, phase, span)
//   name   stable short name: the JSON export's args.ev and the post-mortem
//          text; docs/OBSERVABILITY.md documents every one
//   hex    arguments the JSON export renders as "0x..." pointer strings:
//          bit 0 = a0, bit 1 = a1
//   phase  'i' instant; 'B' / 'E' opens / closes the duration span `span`
// Each row's comment names a0, a1.  Per-operation events are sampled with
// the operation's latency timer unless their section marks them "always".
#define KIWI_TRACE_EVENTS(X)                                                   \
  /* ---- put path (put_restart, put_helped: always) ---------------------- */ \
  X(kPutOp, "put", 0, 'i', "")                         /* key, value */        \
  X(kPutPpaPublish, "put_ppa_publish", 0, 'i', "")     /* key, cell index */   \
  X(kPutRestart, "put_restart", 2, 'i', "")            /* key, chunk */        \
  X(kPutHelped, "put_helped", 0, 'i', "")              /* key, version */      \
  /* ---- get / scan (scan_help_install, snapshot_open: always) ----------- */ \
  X(kGetOp, "get", 0, 'i', "")                         /* key, 1 if hit */     \
  X(kScanBegin, "scan_begin", 0, 'B', "scan")          /* from, to */          \
  X(kScanVersion, "scan_version", 0, 'i', "")          /* version, helped */   \
  X(kScanEnd, "scan_end", 0, 'E', "scan")              /* keys emitted, 0 */   \
  X(kScanHelpInstall, "scan_help_install", 1, 'i', "") /* psa slot, version */ \
  X(kSnapshotOpen, "snapshot_open", 0, 'i', "")        /* read point, 0 */     \
  /* ---- rebalance (always); outcome: 1 splice win | 2 consensus win ----- */ \
  X(kRebStart, "reb_start", 1, 'B', "rebalance")       /* chunk, #carried */   \
  X(kRebEngage, "reb_engage", 3, 'i', "")              /* ro, last engaged */  \
  X(kRebEngageAdopt, "reb_engage_adopt", 3, 'i', "")   /* own last, adopted */ \
  X(kRebFreeze, "reb_freeze", 1, 'i', "")              /* ro, chunks frozen */ \
  X(kRebMinVersion, "reb_min_version", 1, 'i', "")     /* ro, min version */   \
  X(kRebBuild, "reb_build", 1, 'i', "")                /* ro, chunks built */  \
  X(kRebReplace, "reb_replace", 1, 'i', "")            /* ro, outcome */       \
  X(kRebIndex, "reb_index", 1, 'i', "")                /* ro, 0 */             \
  X(kRebNormalize, "reb_normalize", 1, 'i', "")        /* ro, #normalized */   \
  X(kRebDone, "reb_done", 1, 'E', "rebalance")         /* ro, outcome */       \
  X(kChunkDiscard, "chunk_discard", 1, 'i', "")        /* chunk, 0 */          \
  /* ---- reclamation (always) -------------------------------------------- */ \
  X(kEbrRetire, "ebr_retire", 1, 'i', "")              /* object, epoch */     \
  X(kEbrEpoch, "ebr_epoch", 0, 'i', "")                /* new epoch, 0 */      \
  X(kEbrCollect, "ebr_collect", 0, 'i', "")            /* freed, pending */    \
  /* ---- crash path ------------------------------------------------------ */ \
  X(kFatal, "fatal", 0, 'i', "")                       /* line number, 0 */    \
  /* ---- batch ingest (always); a run is named by its first key ---------- */ \
  X(kBatchStart, "batch_start", 0, 'i', "")            /* submitted, kept */   \
  X(kBatchRun, "batch_run", 0, 'i', "")                /* run, #per-op */      \
  X(kBatchBulk, "batch_bulk", 0, 'i', "")              /* run, #built */

#if KIWI_TRACE_ENABLED

#include <atomic>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace kiwi::obs::trace {

/// Event identifiers, generated from KIWI_TRACE_EVENTS (above the
/// KIWI_TRACE_ENABLED gate).  The stable names, not the numeric ids, are the
/// trace JSON contract.
enum class Ev : std::uint16_t {
  kNone = 0,
#define KIWI_TRACE_EV_ID(id, name, hex, phase, span) id,
  KIWI_TRACE_EVENTS(KIWI_TRACE_EV_ID)
#undef KIWI_TRACE_EV_ID
  kCount_,
};

inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(Ev::kCount_);

/// Stable short names used by the JSON export and the post-mortem text dump.
const char* TraceEventName(Ev id);

/// One recorded event.  Exactly 32 bytes; written by the owning thread with
/// plain stores, read (racily, relaxed) by dump consumers.
struct Event {
  std::uint64_t tsc = 0;  // rdtsc (or steady_clock ns fallback)
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint32_t id = 0;   // Ev
  std::uint32_t tid = 0;  // ThreadRegistry slot
};
static_assert(sizeof(Event) == 32, "events are packed to 32 bytes");

/// Ring capacity per thread, in events (a power of two).  8192 events x
/// 32 B = 256 KiB per thread; see docs/OBSERVABILITY.md for sizing.
inline constexpr std::size_t kRingCapacity = 8192;
inline constexpr std::uint64_t kRingMask = kRingCapacity - 1;

/// One thread's ring.  `head` counts events ever written; the slot written
/// next is head & kRingMask, so the newest min(head, capacity) events are
/// always live.  Only the owning thread writes; consumers read relaxed and
/// tolerate a torn in-flight slot (at most one per ring).
struct alignas(kCacheLineSize) Ring {
  Event events[kRingCapacity];
  // Owner-written with relaxed stores (plain movs on x86); dump consumers
  // read it relaxed from other threads.
  std::atomic<std::uint64_t> head{0};
};

/// The process-wide recorder: one ring per ThreadRegistry slot.  Global (not
/// per-map) so reclamation code and the crash handler reach it without a map
/// pointer, and so one timeline covers every map in the process.
Ring* Rings();

/// steady_clock nanoseconds, for targets without a cheap cycle counter.
std::uint64_t NowFallbackNs();

/// Timestamp source: rdtsc where available (sub-ns read, globally monotone
/// on invariant-TSC hardware), else a steady_clock read.
inline std::uint64_t Now() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return NowFallbackNs();
#endif
}

/// Record one event into the calling thread's ring.  Plain stores only.
inline void Emit(Ev id, std::uint64_t a0, std::uint64_t a1) {
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  Ring& ring = Rings()[slot];
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  Event& e = ring.events[head & kRingMask];
  e.tsc = Now();
  e.a0 = a0;
  e.a1 = a1;
  e.id = static_cast<std::uint32_t>(id);
  e.tid = static_cast<std::uint32_t>(slot);
  // The head bump is the last write: a merge that reads head sees complete
  // events at every index below it (same-thread program order; cross-thread
  // consumers are post-mortem/quiescent and tolerate the final in-flight
  // slot tearing).
  ring.head.store(head + 1, std::memory_order_relaxed);
}

// ---- consumers (trace.cpp) -------------------------------------------

/// Merge every ring by timestamp into Chrome trace-event / Perfetto JSON on
/// `out`.  Returns the number of events exported.  Safe to call while
/// threads run (the newest in-flight event per ring may tear; the export
/// drops events whose id fails validation).  Quiescent callers get an exact
/// dump.
std::size_t DumpTrace(std::FILE* out);

/// DumpTrace into a file at `path`.  Returns false if the file cannot be
/// opened (errno preserved).
bool DumpTraceToFile(const char* path);

/// Write the newest `max_events` merged events as plain text to file
/// descriptor `fd`.  Async-signal-safe: fixed stack buffers, write(2) only.
void DumpTailText(int fd, std::size_t max_events);

/// Callback invoked by the crash handler after the event tail (e.g. to
/// print a map's DebugReport).  Runs in signal context for real crashes —
/// keep it to formatting + write(2) where possible.
using CrashReportFn = void (*)(void* ctx, int fd);
void SetCrashReportCallback(CrashReportFn fn, void* ctx);

/// Install SIGABRT/SIGSEGV/SIGBUS/SIGILL handlers plus the kiwi::Fatal
/// hook.  On any of them: the last kCrashDumpEvents merged events, then the
/// registered crash callback, go to stderr (or the file named by the
/// KIWI_TRACE_CRASH_FILE environment variable); then the signal's default
/// disposition runs (the process still dies with the original signal).
/// Idempotent.
void InstallCrashHandler();

/// Events printed by the crash path.
inline constexpr std::size_t kCrashDumpEvents = 128;

/// Test hook: number of events currently live in every ring combined.
std::size_t LiveEventCount();

/// Test hook: reset every ring (quiescent callers only).
void ResetForTest();

}  // namespace kiwi::obs::trace

// ---- hook macros ------------------------------------------------------
// Core/reclaim hot paths are instrumented exclusively through these, so a
// KIWI_TRACE=OFF (or KIWI_STATS=OFF) build compiles every hook away with
// its arguments unevaluated.
#define KIWI_TRACE(id, a0, a1)                                \
  ::kiwi::obs::trace::Emit(::kiwi::obs::trace::Ev::id,        \
                           static_cast<std::uint64_t>(a0),    \
                           static_cast<std::uint64_t>(a1))

#else  // !KIWI_TRACE_ENABLED

#define KIWI_TRACE(id, a0, a1) ((void)0)

#endif  // KIWI_TRACE_ENABLED
