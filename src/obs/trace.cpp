// Flight-recorder consumers: ring merge, Chrome trace-event JSON export,
// and the crash post-mortem path.  The hot recording path is entirely in
// trace.h; nothing here is ever reached by a map operation.
#include "obs/trace.h"

#if KIWI_TRACE_ENABLED

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/assert.h"

namespace kiwi::obs::trace {

// Defined out-of-line so every binary shares one BSS instance (64 rings x
// 256 KiB is virtual, zero-backed until a thread actually records).
Ring g_trace_rings[kMaxThreads];

Ring* Rings() { return g_trace_rings; }

std::uint64_t NowFallbackNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// (tsc, wall-ns) pair; two of them turn tsc into trace microseconds.
struct ClockAnchor {
  std::uint64_t tsc;
  std::uint64_t ns;
};

ClockAnchor AnchorNow() { return ClockAnchor{Now(), NowFallbackNs()}; }

// Captured at load time so every recorded tsc postdates it.
const ClockAnchor g_anchor = AnchorNow();

/// Cycles per nanosecond, measured against the load-time anchor.  On
/// targets where Now() already returns nanoseconds this comes out as 1.
double CyclesPerNs() {
  const ClockAnchor now = AnchorNow();
  if (now.ns <= g_anchor.ns || now.tsc <= g_anchor.tsc) return 1.0;
  const double ratio = static_cast<double>(now.tsc - g_anchor.tsc) /
                       static_cast<double>(now.ns - g_anchor.ns);
  return ratio > 0 ? ratio : 1.0;
}

/// Copy the live tail of every ring and sort by timestamp.  Concurrent
/// emitters may tear at most the newest in-flight slot per ring; events
/// with an invalid id are dropped.
std::vector<Event> CollectMerged() {
  std::vector<Event> all;
  for (std::size_t slot = 0; slot < kMaxThreads; ++slot) {
    const Ring& ring = g_trace_rings[slot];
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    const std::uint64_t count = head < kRingCapacity ? head : kRingCapacity;
    for (std::uint64_t i = head - count; i < head; ++i) {
      const Event e = ring.events[i & kRingMask];
      if (e.id == 0 || e.id >= kEventKindCount) continue;
      all.push_back(e);
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Event& a, const Event& b) { return a.tsc < b.tsc; });
  return all;
}

/// How the consumers render one event: a row of KIWI_TRACE_EVENTS.
struct EventInfo {
  const char* name;
  unsigned hex;  // bit 0: a0, bit 1: a1 is a pointer ("0x..." in JSON)
  char phase;    // 'i' instant, 'B' opens `span`, 'E' closes it
  const char* span;
};

constexpr EventInfo kEvents[] = {
    {"none", 0, 'i', ""},
#define KIWI_TRACE_ROW(id, name, hex, phase, span) {name, hex, phase, span},
    KIWI_TRACE_EVENTS(KIWI_TRACE_ROW)
#undef KIWI_TRACE_ROW
};
static_assert(std::size(kEvents) == kEventKindCount);

void WriteArgsJson(std::FILE* out, const Event& e) {
  const unsigned hex = kEvents[e.id].hex;
  if (hex & 1) {
    std::fprintf(out, "\"a0\":\"0x%llx\",", (unsigned long long)e.a0);
  } else {
    std::fprintf(out, "\"a0\":%llu,", (unsigned long long)e.a0);
  }
  if (hex & 2) {
    std::fprintf(out, "\"a1\":\"0x%llx\"", (unsigned long long)e.a1);
  } else {
    std::fprintf(out, "\"a1\":%llu", (unsigned long long)e.a1);
  }
}

// ---- async-signal-safe formatting -------------------------------------

void SafeWrite(int fd, const char* text, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, text, len);
    if (n <= 0) return;
    text += n;
    len -= static_cast<std::size_t>(n);
  }
}

void SafeWriteStr(int fd, const char* text) {
  SafeWrite(fd, text, std::strlen(text));
}

/// Append a decimal u64; returns chars written.  No snprintf (not
/// async-signal-safe in theory; this path runs inside SIGSEGV handlers).
std::size_t AppendDec(char* buffer, std::uint64_t value) {
  char digits[20];
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value > 0);
  for (std::size_t i = 0; i < n; ++i) buffer[i] = digits[n - 1 - i];
  return n;
}

std::size_t AppendHex(char* buffer, std::uint64_t value) {
  static const char* kHex = "0123456789abcdef";
  buffer[0] = '0';
  buffer[1] = 'x';
  char digits[16];
  std::size_t n = 0;
  do {
    digits[n++] = kHex[value & 0xf];
    value >>= 4;
  } while (value > 0);
  for (std::size_t i = 0; i < n; ++i) buffer[2 + i] = digits[n - 1 - i];
  return 2 + n;
}

std::size_t AppendStr(char* buffer, const char* text) {
  const std::size_t n = std::strlen(text);
  std::memcpy(buffer, text, n);
  return n;
}

// ---- crash handler ----------------------------------------------------

std::sig_atomic_t g_post_mortem_done = 0;
CrashReportFn g_crash_report_fn = nullptr;
void* g_crash_report_ctx = nullptr;
char g_crash_file[256] = {0};  // cached at install; getenv is not ASS

void WritePostMortem(int sig) {
  if (g_post_mortem_done) return;  // Fatal already dumped; SIGABRT follows
  g_post_mortem_done = 1;
  int fd = 2;
  if (g_crash_file[0] != '\0') {
    const int file_fd = ::open(g_crash_file, O_WRONLY | O_CREAT | O_TRUNC,
                               0644);
    if (file_fd >= 0) fd = file_fd;
  }
  char line[160];
  std::size_t at = AppendStr(line, "=== KiWi flight recorder post-mortem (");
  at += AppendStr(line + at, sig == 0 ? "fatal" : "signal ");
  if (sig != 0) at += AppendDec(line + at, static_cast<std::uint64_t>(sig));
  at += AppendStr(line + at, ") ===\n");
  SafeWrite(fd, line, at);
  DumpTailText(fd, kCrashDumpEvents);
  if (g_crash_report_fn != nullptr) {
    g_crash_report_fn(g_crash_report_ctx, fd);
  }
  SafeWriteStr(fd, "=== end post-mortem ===\n");
  if (fd != 2) ::close(fd);
}

extern "C" void KiwiCrashSignalHandler(int sig) {
  WritePostMortem(sig);
  // SA_RESETHAND restored the default disposition; re-raise so the process
  // dies with the original signal (core dumps, CI failure, etc.).
  ::raise(sig);
}

void FatalHookImpl() {
  Emit(Ev::kFatal, 0, 0);
  WritePostMortem(0);
}

}  // namespace

const char* TraceEventName(Ev id) {
  const auto index = static_cast<std::size_t>(id);
  return index < kEventKindCount ? kEvents[index].name : "?";
}

std::size_t DumpTrace(std::FILE* out) {
  const std::vector<Event> events = CollectMerged();
  const double cycles_per_us = CyclesPerNs() * 1000.0;
  const std::uint64_t t0 = events.empty() ? 0 : events.front().tsc;
  const int pid = static_cast<int>(::getpid());

  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  const auto comma = [&] {
    if (!first) std::fputc(',', out);
    first = false;
  };

  // Per-thread stack of open duration slices, so ring wraparound (a lost
  // begin or end) can never emit an unbalanced B/E pair — Perfetto refuses
  // those.  Entries are span names.
  std::vector<const char*> open[kMaxThreads];
  double last_ts[kMaxThreads] = {0};

  for (const Event& e : events) {
    const EventInfo& info = kEvents[e.id];
    const double ts = static_cast<double>(e.tsc - t0) / cycles_per_us;
    const std::uint32_t tid = e.tid < kMaxThreads ? e.tid : 0;
    last_ts[tid] = ts;
    char phase = info.phase;
    if (phase == 'E') {
      // Close only a matching open span; otherwise degrade to an instant
      // (its begin predates the ring's history).
      if (!open[tid].empty() && std::strcmp(open[tid].back(), info.span) == 0) {
        open[tid].pop_back();
      } else {
        phase = 'i';
      }
    } else if (phase == 'B') {
      open[tid].push_back(info.span);
    }
    comma();
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,"
                 "\"pid\":%d,\"tid\":%u",
                 phase == 'i' ? info.name : info.span, phase, ts, pid, tid);
    if (phase == 'i') std::fprintf(out, ",\"s\":\"t\"");
    std::fprintf(out, ",\"args\":{\"ev\":\"%s\",", info.name);
    WriteArgsJson(out, e);
    std::fprintf(out, "}}");
  }

  // Close spans truncated by the dump point (e.g. a rebalance still
  // running, or whose end the ring evicted).
  for (std::size_t tid = 0; tid < kMaxThreads; ++tid) {
    while (!open[tid].empty()) {
      comma();
      std::fprintf(out,
                   "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":%d,"
                   "\"tid\":%zu,\"args\":{\"truncated\":1}}",
                   open[tid].back(), last_ts[tid], pid, tid);
      open[tid].pop_back();
    }
  }

  std::fprintf(out, "]}\n");
  std::fflush(out);
  return events.size();
}

bool DumpTraceToFile(const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return false;
  DumpTrace(out);
  std::fclose(out);
  return true;
}

void DumpTailText(int fd, std::size_t max_events) {
  // Merge the newest `max_events` without allocating: per-ring backward
  // cursors, repeatedly taking the ring whose next-older event is newest.
  std::uint64_t cursor[kMaxThreads];
  std::uint64_t remaining[kMaxThreads];
  for (std::size_t slot = 0; slot < kMaxThreads; ++slot) {
    const std::uint64_t head =
        g_trace_rings[slot].head.load(std::memory_order_relaxed);
    cursor[slot] = head;
    remaining[slot] = head < kRingCapacity ? head : kRingCapacity;
  }
  if (max_events > kCrashDumpEvents) max_events = kCrashDumpEvents;
  Event tail[kCrashDumpEvents];
  std::size_t collected = 0;
  while (collected < max_events) {
    std::size_t best = kMaxThreads;
    std::uint64_t best_tsc = 0;
    for (std::size_t slot = 0; slot < kMaxThreads; ++slot) {
      if (remaining[slot] == 0) continue;
      const Event& e =
          g_trace_rings[slot].events[(cursor[slot] - 1) & kRingMask];
      if (best == kMaxThreads || e.tsc >= best_tsc) {
        best = slot;
        best_tsc = e.tsc;
      }
    }
    if (best == kMaxThreads) break;  // all rings drained
    tail[collected++] =
        g_trace_rings[best].events[(cursor[best] - 1) & kRingMask];
    cursor[best]--;
    remaining[best]--;
  }
  // `tail` holds newest -> oldest; print oldest first with cycle offsets
  // relative to the newest event.
  const std::uint64_t newest = collected > 0 ? tail[0].tsc : 0;
  char line[192];
  std::size_t at = AppendStr(line, "last ");
  at += AppendDec(line + at, collected);
  at += AppendStr(line + at, " events (newest last, -cycles before crash):\n");
  SafeWrite(fd, line, at);
  for (std::size_t i = collected; i-- > 0;) {
    const Event& e = tail[i];
    if (e.id == 0 || e.id >= kEventKindCount) continue;
    at = AppendStr(line, "  [-");
    at += AppendDec(line + at, newest - e.tsc);
    at += AppendStr(line + at, "c] t");
    at += AppendDec(line + at, e.tid);
    at += AppendStr(line + at, " ");
    at += AppendStr(line + at, kEvents[e.id].name);
    at += AppendStr(line + at, " a0=");
    at += AppendHex(line + at, e.a0);
    at += AppendStr(line + at, " a1=");
    at += AppendHex(line + at, e.a1);
    at += AppendStr(line + at, "\n");
    SafeWrite(fd, line, at);
  }
}

void SetCrashReportCallback(CrashReportFn fn, void* ctx) {
  g_crash_report_fn = fn;
  g_crash_report_ctx = ctx;
}

void InstallCrashHandler() {
  if (const char* file = std::getenv("KIWI_TRACE_CRASH_FILE");
      file != nullptr && *file != '\0') {
    std::strncpy(g_crash_file, file, sizeof(g_crash_file) - 1);
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = KiwiCrashSignalHandler;
  // One shot: the handler runs once, then the default disposition kills the
  // process on the re-raise (and any crash *inside* the handler).
  action.sa_flags = SA_RESETHAND;
  sigemptyset(&action.sa_mask);
  for (const int sig : {SIGABRT, SIGSEGV, SIGBUS, SIGILL}) {
    ::sigaction(sig, &action, nullptr);
  }
  SetFatalHook(&FatalHookImpl);
}

std::size_t LiveEventCount() {
  std::size_t total = 0;
  for (std::size_t slot = 0; slot < kMaxThreads; ++slot) {
    const std::uint64_t head =
        g_trace_rings[slot].head.load(std::memory_order_relaxed);
    total += head < kRingCapacity ? head : kRingCapacity;
  }
  return total;
}

void ResetForTest() {
  for (std::size_t slot = 0; slot < kMaxThreads; ++slot) {
    g_trace_rings[slot].head.store(0, std::memory_order_relaxed);
  }
}

}  // namespace kiwi::obs::trace

#endif  // KIWI_TRACE_ENABLED
