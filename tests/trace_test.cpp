// Flight recorder tests: ring wraparound semantics, multi-thread merge
// ordering, Perfetto JSON validity (including a scripts/ round-trip), and
// the crash post-mortem path driven by a real deviation-9 double-retire in
// a forked child.  The KIWI_TRACE=OFF zero-symbol guarantee is checked by
// CI with `nm` (mirroring the KIWI_STATS=OFF check), not here.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/assert.h"
#include "common/thread_registry.h"
#include "core/kiwi_map.h"
#include "obs/trace.h"

namespace kiwi::core {

// Friend of KiWiMap (declared in kiwi_map.h): reaches the private
// DiscardSection so the crash test can trip the real double-retire assert.
class KiWiTestPeer {
 public:
  static void Discard(Chunk* chunk) { KiWiMap::DiscardSection(chunk); }
};

}  // namespace kiwi::core

namespace kiwi::obs::trace {
namespace {

#if KIWI_TRACE_ENABLED

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string DumpToString() {
  char path[] = "/tmp/kiwi_trace_test_XXXXXX";
  const int fd = ::mkstemp(path);
  EXPECT_GE(fd, 0);
  ::close(fd);
  EXPECT_TRUE(DumpTraceToFile(path));
  std::string text = ReadFile(path);
  ::unlink(path);
  return text;
}

// Minimal strict JSON validator (same approach as obs_test.cpp).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    for (++pos_; pos_ < text_.size(); ++pos_) {
      if (text_[pos_] == '\\') { ++pos_; continue; }
      if (text_[pos_] == '"') { ++pos_; return true; }
    }
    return false;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(Peek())) ++pos_;
    if (Peek() == '.') { ++pos_; while (std::isdigit(Peek())) ++pos_; }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(Peek())) ++pos_;
    }
    return pos_ > start && std::isdigit(text_[pos_ - 1]);
  }
  bool Literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c, ++pos_) {
      if (Peek() != *c) return false;
    }
    return true;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(TraceRing, WraparoundKeepsNewestEvents) {
  ResetForTest();
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  const std::size_t extra = 100;
  for (std::size_t i = 0; i < kRingCapacity + extra; ++i) {
    Emit(Ev::kGetOp, /*a0=*/i, /*a1=*/0);
  }
  Ring& ring = Rings()[slot];
  EXPECT_EQ(ring.head.load(std::memory_order_relaxed), kRingCapacity + extra);
  EXPECT_EQ(LiveEventCount(), kRingCapacity);
  // Every live slot holds one of the newest kRingCapacity values; the
  // oldest `extra` were overwritten.
  std::uint64_t min_a0 = ~0ull, max_a0 = 0;
  for (std::size_t i = 0; i < kRingCapacity; ++i) {
    min_a0 = std::min(min_a0, ring.events[i].a0);
    max_a0 = std::max(max_a0, ring.events[i].a0);
  }
  EXPECT_EQ(min_a0, extra);
  EXPECT_EQ(max_a0, kRingCapacity + extra - 1);
  ResetForTest();
  EXPECT_EQ(LiveEventCount(), 0u);
}

TEST(TraceRing, EventNamesAreStable) {
  for (std::size_t id = 0; id < kEventKindCount; ++id) {
    const char* name = TraceEventName(static_cast<Ev>(id));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "event id " << id << " lacks a name";
  }
  EXPECT_STREQ(TraceEventName(Ev::kCount_), "?");
}

TEST(TraceDump, MultiThreadMergeIsTimestampOrdered) {
  ResetForTest();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  // ThreadRegistry recycles slots on thread exit, so every thread must stay
  // alive until all have emitted — otherwise they'd share one ring.
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&done] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        Emit(Ev::kPutOp, i, 0);
      }
      done.fetch_add(1);
      while (done.load() < kThreads) std::this_thread::yield();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GE(LiveEventCount(), kThreads * kPerThread);

  const std::string json = DumpToString();
  // The export is sorted by timestamp: every "ts": value is non-decreasing.
  std::vector<double> stamps;
  std::size_t at = 0;
  while ((at = json.find("\"ts\":", at)) != std::string::npos) {
    stamps.push_back(std::strtod(json.c_str() + at + 5, nullptr));
    at += 5;
  }
  ASSERT_GE(stamps.size(), kThreads * kPerThread);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    ASSERT_LE(stamps[i - 1], stamps[i]) << "merge out of order at " << i;
  }
  // All four threads' rings contributed.
  int tids_seen = 0;
  for (int tid = 0; tid < 8; ++tid) {
    if (json.find("\"tid\":" + std::to_string(tid)) != std::string::npos) {
      ++tids_seen;
    }
  }
  EXPECT_GE(tids_seen, kThreads);
  ResetForTest();
}

TEST(TraceDump, RealWorkloadJsonParsesAndSummarizes) {
  ResetForTest();
  {
    // Small chunks force rebalances so the trace contains full spans.
    core::KiWiConfig config;
    config.chunk_capacity = 64;
    core::KiWiMap map(config);
    for (Key k = 1; k <= 4000; ++k) map.Put(k, k);
    std::vector<core::KiWiMap::Entry> out;
    map.Scan(1, 4000, out);
    EXPECT_EQ(out.size(), 4000u);
  }
  const std::string json = DumpToString();
  ASSERT_FALSE(json.empty());
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << "trace export is not valid JSON";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"rebalance\""), std::string::npos);
  EXPECT_NE(json.find("reb_engage"), std::string::npos);
  EXPECT_NE(json.find("reb_normalize"), std::string::npos);

  // Round-trip through the operator tooling: trace_summary.py must accept
  // the file (it exits non-zero on malformed traces).
  if (std::system("python3 -c '' > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const char* path = "/tmp/kiwi_trace_test_summary.json";
  ASSERT_TRUE(DumpTraceToFile(path));
  const std::string command = std::string("python3 ") + KIWI_SOURCE_DIR +
                              "/scripts/trace_summary.py " + path +
                              " > /dev/null 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0);
  ::unlink(path);
  ResetForTest();
}

// Latency sampling and operation tracing make one decision per operation:
// the traced puts are exactly the timed ones, whatever another map did on
// this thread before.  The 63 gets on another map are what would pull a
// separate per-thread trace sampler off the map's own: it would trace puts
// 1, 65, 129 and 193 while the map times 64, 128 and 192.
TEST(TraceSampling, OperationEventsFollowTheLatencySample) {
  ResetForTest();
  core::KiWiMap other;
  for (Key k = 1; k <= 63; ++k) other.Get(k);
  core::KiWiMap map;
  for (Key k = 1; k <= 200; ++k) map.Put(k, k);
  const Ring& ring = Rings()[ThreadRegistry::CurrentSlot()];
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  ASSERT_LE(head, kRingCapacity);
  std::uint64_t put_events = 0;
  for (std::uint64_t i = 0; i < head; ++i) {
    if (ring.events[i].id == static_cast<std::uint32_t>(Ev::kPutOp)) {
      ++put_events;
    }
  }
  EXPECT_GT(put_events, 0u);
  EXPECT_EQ(put_events, map.Observability().Hist(Latency::kPut).Count());
  ResetForTest();
}

// A real deviation-9 double-retire in a forked child must produce a
// post-mortem on stderr: the KIWI_ASSERT message, the flight recorder tail,
// and the registered DebugReport — then die by SIGABRT.
TEST(TraceCrash, DoubleRetireProducesPostMortem) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);

  if (pid == 0) {
    // Child.  Route stderr into the pipe, arm the crash path, build some
    // history, then trip the double-retire guard.
    ::close(fds[0]);
    ::dup2(fds[1], 2);
    InstallCrashHandler();
    static core::KiWiMap map;
    SetCrashReportCallback(
        [](void* ctx, int fd) {
          // Fatal() is a synchronous abort, not a wild signal: ordinary
          // formatting is fine here.
          const std::string text =
              static_cast<core::KiWiMap*>(ctx)->DebugReport().ToText();
          ssize_t ignored = ::write(fd, text.data(), text.size());
          (void)ignored;
        },
        &map);
    for (Key k = 1; k <= 2000; ++k) map.Put(k, k);
    // A chunk EBR already retired being discarded again — the deviation-9
    // invariant DiscardSection aborts on.
    static reclaim::SlabPool crash_pool;
    auto* chunk = core::Chunk::Create(crash_pool, 1, 8, nullptr,
                                      core::Chunk::Status::kNormal);
    chunk->retired.store(true, std::memory_order_relaxed);
    core::KiWiTestPeer::Discard(chunk);
    ::_exit(0);  // not reached
  }

  ::close(fds[1]);
  std::string output;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buffer, sizeof(buffer))) > 0) {
    output.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child should die by signal; output:\n"
                                   << output;
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  EXPECT_NE(output.find("KIWI_ASSERT failed"), std::string::npos) << output;
  EXPECT_NE(output.find("already retired"), std::string::npos) << output;
  EXPECT_NE(output.find("flight recorder post-mortem"), std::string::npos)
      << output;
  // The event tail holds recent history (2000 puts → ppa publishes at the
  // very least) ...
  EXPECT_NE(output.find("put"), std::string::npos) << output;
  EXPECT_NE(output.find("a0=0x"), std::string::npos) << output;
  // ... followed by the registered DebugReport.
  EXPECT_NE(output.find("KiWi DebugReport"), std::string::npos) << output;
  EXPECT_NE(output.find("end post-mortem"), std::string::npos) << output;
}

#else  // !KIWI_TRACE_ENABLED

TEST(Trace, DisabledBuildCompilesHooksAway) {
  // The macro must be a valid no-op statement.
  KIWI_TRACE(kPutOp, 1, 2);
}

#endif  // KIWI_TRACE_ENABLED

}  // namespace
}  // namespace kiwi::obs::trace
