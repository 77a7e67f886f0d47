// Observability subsystem: histogram bucket math and percentiles against
// known distributions, registry aggregation across threads, and a
// multi-threaded DebugReport smoke (JSON well-formedness + counter
// monotonicity).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/kiwi_map.h"
#include "obs/histogram.h"
#include "obs/report.h"
#include "obs/stats_registry.h"

namespace kiwi {
namespace {

using obs::HistogramSnapshot;
using obs::LatencyHistogram;

// ---- a minimal JSON well-formedness checker ---------------------------
// DebugReport::ToJson() promises parseable JSON; this recursive-descent
// validator is deliberately strict (no trailing commas, proper numbers) so
// schema regressions fail loudly without pulling in a JSON library.
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

// ---- bucket math ------------------------------------------------------

TEST(HistogramBuckets, ExactBelowSubCount) {
  for (std::uint64_t v = 0; v < LatencyHistogram::kSubCount; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketFor(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(v), v);
  }
}

TEST(HistogramBuckets, LowerBoundIsExactInverseOnBoundaries) {
  for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    const std::uint64_t lower = LatencyHistogram::BucketLowerBound(i);
    EXPECT_EQ(LatencyHistogram::BucketFor(lower), i) << "bucket " << i;
  }
}

TEST(HistogramBuckets, MonotoneAndWithinOneSubBucketOfTruth) {
  std::size_t previous = 0;
  for (std::uint64_t v = 1; v != 0 && v < (std::uint64_t{1} << 62);
       v += 1 + v / 7) {
    const std::size_t bucket = LatencyHistogram::BucketFor(v);
    ASSERT_GE(bucket, previous) << "BucketFor must be monotone at " << v;
    previous = bucket;
    const std::uint64_t lower = LatencyHistogram::BucketLowerBound(bucket);
    ASSERT_LE(lower, v);
    if (bucket + 1 < LatencyHistogram::kBucketCount) {
      const std::uint64_t next = LatencyHistogram::BucketLowerBound(bucket + 1);
      ASSERT_GT(next, v);
      // Relative bucket width bounds the quantile error: 1/kSubCount.
      if (v >= LatencyHistogram::kSubCount) {
        ASSERT_LE(static_cast<double>(next - lower),
                  static_cast<double>(lower) / LatencyHistogram::kSubCount +
                      1.0);
      }
    }
  }
}

TEST(HistogramBuckets, ExtremeValuesStayInRange) {
  EXPECT_LT(LatencyHistogram::BucketFor(~std::uint64_t{0}),
            LatencyHistogram::kBucketCount);
  EXPECT_EQ(LatencyHistogram::BucketFor(0), 0u);
}

// ---- percentile math --------------------------------------------------

TEST(HistogramPercentiles, UniformDistributionWithinBucketError) {
  LatencyHistogram hist;
  constexpr std::uint64_t kN = 10'000;
  for (std::uint64_t v = 1; v <= kN; ++v) hist.Record(v);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kN);
  EXPECT_EQ(snap.max, kN);
  // Sum is tracked exactly, so the mean is exact.
  EXPECT_DOUBLE_EQ(snap.Mean(), (kN + 1) / 2.0);
  // A percentile returns its bucket's lower bound: within 1/kSubCount below
  // the true value, never above it.
  const double tolerance = 1.0 / LatencyHistogram::kSubCount;
  for (const auto& [q, truth] :
       std::vector<std::pair<double, double>>{{0.50, 5000},
                                              {0.99, 9900},
                                              {0.999, 9990}}) {
    const double measured = static_cast<double>(snap.Percentile(q));
    EXPECT_LE(measured, truth) << "q=" << q;
    EXPECT_GE(measured, truth * (1.0 - tolerance)) << "q=" << q;
  }
}

TEST(HistogramPercentiles, PointMassAndEdgeQuantiles) {
  LatencyHistogram hist;
  for (int i = 0; i < 1000; ++i) hist.Record(777);
  const HistogramSnapshot snap = hist.Snapshot();
  const std::uint64_t bucket_value = LatencyHistogram::BucketLowerBound(
      LatencyHistogram::BucketFor(777));
  EXPECT_EQ(snap.Percentile(0.001), bucket_value);
  EXPECT_EQ(snap.P50(), bucket_value);
  EXPECT_EQ(snap.Percentile(1.0), bucket_value);
  EXPECT_EQ(snap.max, 777u);
}

TEST(HistogramPercentiles, EmptyHistogramReadsZero) {
  const HistogramSnapshot snap = LatencyHistogram().Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.P50(), 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HistogramPercentiles, ConcurrentRecordsAllLand) {
  LatencyHistogram hist;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<std::uint64_t>(t) * 1000 + (i % 97));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  EXPECT_EQ(snap.max,
            LatencyHistogram::BucketLowerBound(LatencyHistogram::BucketFor(
                (kThreads - 1) * 1000 + 96)) <= snap.max
                ? snap.max
                : 0u);  // max is one of the recorded values
  EXPECT_EQ(snap.max, (kThreads - 1) * 1000 + 96);
}

// ---- registry ---------------------------------------------------------

TEST(StatsRegistry, AggregatesAcrossThreads) {
  auto registry = std::make_unique<obs::StatsRegistry>();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 1000 * (t + 1); ++i) {
        obs::ShardCounters::Add(registry->Local().puts, 1);
      }
      obs::ShardCounters::Add(registry->Local().scan_keys, 7);
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::OpCounters total = registry->Aggregate();
  EXPECT_EQ(total.puts, 1000u * (kThreads * (kThreads + 1) / 2));
  EXPECT_EQ(total.scan_keys, 7u * kThreads);
  EXPECT_EQ(total.gets, 0u);
}

TEST(StatsRegistry, SampleTickElectsOneInPeriod) {
  auto registry = std::make_unique<obs::StatsRegistry>();
  const unsigned period = 1u << obs::StatsRegistry::kSampleShift;
  unsigned sampled = 0;
  for (unsigned i = 0; i < 10 * period; ++i) {
    if (registry->SampleTick()) ++sampled;
  }
  EXPECT_EQ(sampled, 10u);
}

TEST(StatsRegistry, LatencyNamesAreStable) {
  for (std::size_t i = 0; i < obs::kLatencyCount; ++i) {
    const std::string name = obs::LatencyName(static_cast<obs::Latency>(i));
    EXPECT_NE(name, "?");
    EXPECT_FALSE(name.empty());
  }
}

// ---- DebugReport smoke ------------------------------------------------

TEST(DebugReport, JsonParsesAndCountersAreMonotone) {
  core::KiWiMap map;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&map, &stop, w] {
      Key key = 1 + w;
      while (!stop.load(std::memory_order_relaxed)) {
        map.Put(key, key);
        key = 1 + (key * 2654435761u) % 100'000;
      }
    });
  }
  threads.emplace_back([&map, &stop] {
    std::vector<core::KiWiMap::Entry> out;
    while (!stop.load(std::memory_order_relaxed)) {
      map.Scan(1, 5000, out);
      map.Get(17);
    }
  });

  obs::DebugReport previous = map.DebugReport();
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const obs::DebugReport current = map.DebugReport();

    const std::string json = current.ToJson();
    EXPECT_TRUE(JsonChecker(json).Valid()) << json;
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"latency_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"census\""), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos) << "must be one line";
    EXPECT_FALSE(current.ToText().empty());

    // Counters only ever grow.
    EXPECT_GE(current.counters.puts, previous.counters.puts);
    EXPECT_GE(current.counters.gets, previous.counters.gets);
    EXPECT_GE(current.counters.scans, previous.counters.scans);
    EXPECT_GE(current.counters.scan_keys, previous.counters.scan_keys);
    EXPECT_GE(current.counters.rebalances, previous.counters.rebalances);
    EXPECT_GE(current.counters.chunks_created,
              previous.counters.chunks_created);
    previous = current;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();

#if KIWI_OBS_ENABLED
  const obs::DebugReport final_report = map.DebugReport();
  EXPECT_TRUE(final_report.stats_enabled);
  EXPECT_GT(final_report.counters.puts, 0u);
  EXPECT_GT(final_report.counters.gets, 0u);
  EXPECT_GT(final_report.counters.scans, 0u);
  // The sampled histograms saw roughly ops / 2^kSampleShift events.
  const auto put_hist =
      final_report.latency[static_cast<std::size_t>(obs::Latency::kPut)];
  EXPECT_GT(put_hist.count, 0u);
  EXPECT_LE(put_hist.count,
            final_report.counters.puts + final_report.counters.removes);
  EXPECT_GE(put_hist.max, put_hist.p999);
  EXPECT_GE(put_hist.p999, put_hist.p99);
  EXPECT_GE(put_hist.p99, put_hist.p50);
  // The census and gauges describe a live structure.
  EXPECT_GT(final_report.census.chunks, 0u);
  EXPECT_GT(final_report.gauges.memory_bytes, 0u);
  EXPECT_EQ(final_report.gauges.psa_active, 0u);     // no scan in flight
  EXPECT_EQ(final_report.gauges.snapshot_pins, 0u);  // no view open
#endif
}

TEST(DebugReport, SnapshotViewShowsUpInGauges) {
  core::KiWiMap map;
  for (Key k = 1; k <= 100; ++k) map.Put(k, k);
  {
    core::KiWiMap::Snapshot view(map);
    const obs::DebugReport report = map.DebugReport();
    EXPECT_EQ(report.gauges.snapshot_pins, 1u);
#if KIWI_OBS_ENABLED
    EXPECT_EQ(report.counters.snapshots, 1u);
#endif
  }
  EXPECT_EQ(map.DebugReport().gauges.snapshot_pins, 0u);
}

// memory_bytes is the fixed part (index, map header, sentinel) plus the
// slab bytes the report's one census walk sums; on a quiescent map that is
// exactly what the MemoryFootprint() walk returns.
TEST(DebugReport, MemoryGaugeIsTheFootprint) {
  core::KiWiMap ints;
  for (Key k = 1; k <= 20'000; ++k) ints.Put(k, k);
  for (Key k = 1; k <= 20'000; k += 3) ints.Remove(k);
  ints.DrainReclamation();
  const obs::DebugReport int_report = ints.DebugReport();
  EXPECT_GT(int_report.census.slab_bytes, 0u);
  EXPECT_EQ(int_report.gauges.memory_bytes, ints.MemoryFootprint());

  core::KiWiMapT<core::ByteLayout> bytes;
  for (int i = 0; i < 5'000; ++i) {
    bytes.Put("key" + std::to_string(i), std::string(i % 40, 'v'));
  }
  bytes.DrainReclamation();
  const obs::DebugReport byte_report = bytes.DebugReport();
  EXPECT_GT(byte_report.census.arena_used_bytes, 0u);
  EXPECT_EQ(byte_report.gauges.memory_bytes, bytes.MemoryFootprint());
}

}  // namespace
}  // namespace kiwi
