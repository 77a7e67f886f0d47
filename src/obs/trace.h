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

#if KIWI_TRACE_ENABLED

#include <atomic>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace kiwi::obs::trace {

/// Event identifiers.  The stable names (TraceEventName), not the numeric
/// ids, are the trace JSON contract; append new ids before kCount_.
enum class Ev : std::uint16_t {
  kNone = 0,
  // ---- put path (sampled unless noted) ---------------------------------
  kPutOp,           // a0=key, a1=value          (sampled instant)
  kPutPpaPublish,   // a0=key, a1=cell index     (sampled)
  kPutRestart,      // a0=key, a1=chunk ptr      (always: restarts are rare)
  kPutHelped,       // a0=key, a1=version        (always: helping is rare)
  // ---- get / scan -------------------------------------------------------
  kGetOp,           // a0=key, a1=hit(1)/miss(0) (sampled instant)
  kScanBegin,       // a0=from, a1=to            (sampled; begins a span)
  kScanVersion,     // a0=read point, a1=own(0)/helped(1)  (sampled w/ begin)
  kScanEnd,         // a0=keys emitted, a1=0     (sampled w/ begin)
  kScanHelpInstall, // a0=psa slot, a1=version   (always: rebalance helped)
  kSnapshotOpen,    // a0=read point, a1=0       (always)
  // ---- rebalance stage transitions (always) -----------------------------
  kRebStart,        // a0=trigger chunk, a1=#carried puts
  kRebEngage,       // a0=ro, a1=last engaged chunk
  kRebEngageAdopt,  // a0=our observed last, a1=adopted last (emitted only
                    //   when another helper's consensus view won)
  kRebFreeze,       // a0=ro, a1=chunks frozen
  kRebMinVersion,   // a0=ro, a1=min version
  kRebBuild,        // a0=ro, a1=chunks built
  kRebReplace,      // a0=ro, a1=bit0 splice win | bit1 consensus win
  kRebIndex,        // a0=ro, a1=0
  kRebNormalize,    // a0=ro, a1=chunks normalized
  kRebDone,         // a0=ro, a1=bit0 splice win | bit1 consensus win
  kChunkDiscard,    // a0=chunk ptr, a1=0   (consensus-losing section)
  // ---- reclamation (always) ---------------------------------------------
  kEbrRetire,       // a0=object ptr, a1=epoch at retire
  kEbrEpoch,        // a0=new epoch, a1=0
  kEbrCollect,      // a0=objects freed, a1=still pending
  // ---- crash path -------------------------------------------------------
  kFatal,           // a0=line number, a1=0 (message goes to stderr)
  // ---- batch ingest (always; appended in PR 7) --------------------------
  kBatchStart,      // a0=entries submitted, a1=entries after dedup
  kBatchRun,        // a0=first key of run, a1=#entries installed per-op
  kBatchBulk,       // a0=first key of run, a1=#entries installed via build
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

/// Ring capacity per thread, in events.  Must be a power of two.  8192
/// events x 32 B = 256 KiB per thread; see docs/OBSERVABILITY.md for sizing
/// guidance.  Override at configure time with -DKIWI_TRACE_RING_BITS=n.
#ifndef KIWI_TRACE_RING_BITS
#define KIWI_TRACE_RING_BITS 13
#endif
inline constexpr std::size_t kRingCapacity = std::size_t{1}
                                             << KIWI_TRACE_RING_BITS;
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
