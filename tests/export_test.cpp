// Continuous-telemetry exporter: aggregator delta/rate math, env parsing,
// JSONL and Prometheus well-formedness, the chunk-health census against a
// whitebox-known layout, live pump behaviour, and a contention-teeth test
// that forces CAS retries through the named race hooks and checks the new
// retry counters actually move.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/test_hooks.h"
#include "core/kiwi_map.h"
#include "obs/census.h"
#include "obs/export.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace kiwi::core {
namespace {

// ---- a minimal JSON well-formedness checker ---------------------------
// Same strict recursive-descent validator as obs_test.cpp: parseable JSON,
// no trailing commas, proper numbers — schema regressions fail loudly
// without pulling in a JSON library.
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

// ---- a minimal Prometheus text-exposition parser ----------------------
// Validates the exposition line grammar: comment lines must be well-formed
// "# TYPE <name> <type>" declarations, sample lines must be
// "<name>[{label="v",...}] <number>".  Returns a failure description, or ""
// when every line parses.
std::string CheckPromExposition(const std::string& text) {
  const auto valid_name = [](const std::string& name) {
    if (name.empty()) return false;
    if (!std::isalpha(static_cast<unsigned char>(name[0])) &&
        name[0] != '_' && name[0] != ':') {
      return false;
    }
    for (const char c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != ':') {
        return false;
      }
    }
    return true;
  };
  std::istringstream in(text);
  std::string line;
  int samples = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream decl(line);
      std::string hash, keyword, name, type;
      decl >> hash >> keyword >> name >> type;
      if (keyword != "TYPE" || !valid_name(name) ||
          (type != "counter" && type != "gauge" && type != "histogram")) {
        return "bad comment line: " + line;
      }
      continue;
    }
    // <name>[{...}] <value>
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) return "no value: " + line;
    if (!valid_name(line.substr(0, name_end))) return "bad name: " + line;
    std::size_t value_begin = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      if (close == std::string::npos) return "unclosed labels: " + line;
      // Labels: name="value" pairs separated by commas.
      std::string labels = line.substr(name_end + 1, close - name_end - 1);
      std::istringstream label_stream(labels);
      std::string pair;
      while (std::getline(label_stream, pair, ',')) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || !valid_name(pair.substr(0, eq)) ||
            pair.size() < eq + 3 || pair[eq + 1] != '"' ||
            pair.back() != '"') {
          return "bad label: " + line;
        }
      }
      value_begin = close + 1;
    }
    if (value_begin >= line.size() || line[value_begin] != ' ') {
      return "no space before value: " + line;
    }
    const std::string value = line.substr(value_begin + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') return "bad value: " + line;
    ++samples;
  }
  return samples > 0 ? "" : "no samples";
}

obs::MetricsSample SampleOf(KiWiMap& map) {
  obs::MetricsAggregator agg(1);
  return agg.Ingest(map.DebugReport(), 0.0);
}

// ---- aggregator math ---------------------------------------------------

TEST(MetricsAggregator, FirstSampleCarriesCumulativeAsDeltas) {
  obs::MetricsAggregator agg(7);
  obs::DebugReport report;
  report.counters.puts = 100;
  report.counters.gets = 40;
  const obs::MetricsSample s = agg.Ingest(report, 123.0);
  EXPECT_EQ(s.pump, 7u);
  EXPECT_EQ(s.seq, 0u);
  EXPECT_FALSE(s.have_deltas);
  EXPECT_DOUBLE_EQ(s.uptime_s, 0.0);      // elapsed ignored on the first
  EXPECT_DOUBLE_EQ(s.interval_s, 0.0);
  EXPECT_EQ(s.deltas.puts, 100u);
  EXPECT_EQ(s.deltas.gets, 40u);
}

TEST(MetricsAggregator, DeltasAndUptimeAccumulate) {
  obs::MetricsAggregator agg(1);
  obs::DebugReport report;
  report.counters.puts = 100;
  agg.Ingest(report, 0.0);

  report.counters.puts = 250;
  report.counters.scans = 8;
  obs::MetricsSample s = agg.Ingest(report, 0.5);
  EXPECT_TRUE(s.have_deltas);
  EXPECT_EQ(s.seq, 1u);
  EXPECT_EQ(s.deltas.puts, 150u);
  EXPECT_EQ(s.deltas.scans, 8u);
  EXPECT_EQ(s.deltas.gets, 0u);
  EXPECT_DOUBLE_EQ(s.interval_s, 0.5);
  EXPECT_DOUBLE_EQ(s.uptime_s, 0.5);
  // Rates are deltas / interval, as emitted on the JSONL line.
  EXPECT_NE(s.ToJsonl().find("\"rates\":{\"puts\":300"), std::string::npos);

  report.counters.puts = 260;
  s = agg.Ingest(report, 0.25);
  EXPECT_EQ(s.seq, 2u);
  EXPECT_EQ(s.deltas.puts, 10u);
  EXPECT_DOUBLE_EQ(s.uptime_s, 0.75);
}

TEST(MetricsAggregator, BackwardsCounterClampsToZeroDelta) {
  // Concurrent shard aggregation can momentarily read a counter lower than
  // the previous tick; the delta clamps rather than underflowing.
  obs::MetricsAggregator agg(1);
  obs::DebugReport report;
  report.counters.puts = 1000;
  agg.Ingest(report, 0.0);
  report.counters.puts = 900;
  const obs::MetricsSample s = agg.Ingest(report, 1.0);
  EXPECT_EQ(s.deltas.puts, 0u);
}

// ---- env parsing -------------------------------------------------------

TEST(MetricsEnv, ParsesIntervals) {
  using std::chrono::milliseconds;
  milliseconds out{0};
  EXPECT_TRUE(obs::ParseMetricsInterval("250ms", &out));
  EXPECT_EQ(out, milliseconds(250));
  EXPECT_TRUE(obs::ParseMetricsInterval("1s", &out));
  EXPECT_EQ(out, milliseconds(1000));
  EXPECT_TRUE(obs::ParseMetricsInterval("500", &out));  // bare digits = ms
  EXPECT_EQ(out, milliseconds(500));
  EXPECT_FALSE(obs::ParseMetricsInterval("", &out));
  EXPECT_FALSE(obs::ParseMetricsInterval("0", &out));
  EXPECT_FALSE(obs::ParseMetricsInterval("abc", &out));
  EXPECT_FALSE(obs::ParseMetricsInterval("1h", &out));
  EXPECT_FALSE(obs::ParseMetricsInterval("ms", &out));
}

TEST(MetricsEnv, ParsesSpecs) {
  obs::MetricsPumpOptions options;
  ASSERT_TRUE(obs::ParseMetricsEnv("1s", nullptr, &options));
  EXPECT_EQ(options.interval, std::chrono::milliseconds(1000));
  EXPECT_EQ(options.jsonl_path, "-");  // no path = stdout (pipe quickstart)
  EXPECT_TRUE(options.prom_path.empty());

  ASSERT_TRUE(obs::ParseMetricsEnv("250ms:/tmp/kiwi.jsonl", "/tmp/kiwi.prom",
                                   &options));
  EXPECT_EQ(options.interval, std::chrono::milliseconds(250));
  EXPECT_EQ(options.jsonl_path, "/tmp/kiwi.jsonl");
  EXPECT_EQ(options.prom_path, "/tmp/kiwi.prom");

  EXPECT_FALSE(obs::ParseMetricsEnv(nullptr, nullptr, &options));
  EXPECT_FALSE(obs::ParseMetricsEnv("", nullptr, &options));
  EXPECT_FALSE(obs::ParseMetricsEnv("fast:path", nullptr, &options));
  EXPECT_FALSE(obs::ParseMetricsEnv(":path", nullptr, &options));
}

// ---- export formats ----------------------------------------------------

TEST(MetricsExport, JsonlLineIsValidJsonWithTheStreamMarker) {
  KiWiMap map;
  for (Key k = 1; k <= 500; ++k) map.Put(k, k);
  map.Scan(1, 500, [](Key, Value) {});
  const obs::MetricsSample sample = SampleOf(map);
  const std::string line = sample.ToJsonl();
  EXPECT_TRUE(JsonChecker(line).Valid()) << line;
  EXPECT_EQ(line.find("{\"kiwi_metrics\":2,"), 0u);
  for (const char* key :
       {"\"counters\":", "\"deltas\":", "\"rates\":", "\"gauges\":",
        "\"latency_ns\":", "\"ebr_epoch_lag\"", "\"put_link_retries\"",
        "\"retries\"", "\"fill_hist\""}) {
    EXPECT_NE(line.find(key), std::string::npos) << key;
  }
  // The census is the report's, rendered once; the gauges no longer copy
  // its fields.
  const std::size_t census_at = line.find("\"census\":");
  ASSERT_NE(census_at, std::string::npos);
  EXPECT_EQ(line.find("\"census\":", census_at + 1), std::string::npos);
  const std::size_t gauges_at = line.find("\"gauges\":{");
  ASSERT_NE(gauges_at, std::string::npos);
  const std::string gauges =
      line.substr(gauges_at, line.find('}', gauges_at) - gauges_at);
  EXPECT_EQ(gauges.find("\"chunks\""), std::string::npos) << gauges;
}

TEST(MetricsExport, PromExpositionParses) {
  KiWiMap map;
  for (Key k = 1; k <= 500; ++k) map.Put(k, k);
  const obs::MetricsSample sample = SampleOf(map);
  std::ostringstream prom;
  sample.WriteProm(prom);
  const std::string text = prom.str();
  EXPECT_EQ(CheckPromExposition(text), "");
  for (const char* needle :
       {"# TYPE kiwi_puts_total counter", "# TYPE kiwi_census_chunks gauge",
        "# TYPE kiwi_chunk_fill histogram", "kiwi_chunk_fill_bucket{le=\"+Inf\"}",
        "kiwi_latency_ns{op=\"put\",stat=\"p99\"}",
        "# TYPE kiwi_splice_retries_total counter"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(MetricsExport, PromHistogramBucketsAreCumulative) {
  KiWiMap map;
  for (Key k = 1; k <= 2000; ++k) map.Put(k, k);
  std::ostringstream prom;
  SampleOf(map).WriteProm(prom);
  std::istringstream in(prom.str());
  std::string line;
  long long previous = -1;
  long long last = -1;
  long long count = -1;
  while (std::getline(in, line)) {
    if (line.rfind("kiwi_chunk_fill_bucket", 0) == 0) {
      const long long value =
          std::stoll(line.substr(line.find("} ") + 2));
      EXPECT_GE(value, previous) << "buckets must be cumulative: " << line;
      previous = value;
      last = value;
    } else if (line.rfind("kiwi_chunk_fill_count", 0) == 0) {
      count = std::stoll(line.substr(line.find(' ') + 1));
    }
  }
  ASSERT_GE(last, 0);
  EXPECT_EQ(last, count) << "+Inf bucket must equal _count";
  EXPECT_GT(count, 0);
}

// ---- census ------------------------------------------------------------

TEST(Census, MatchesBulkLoadedLayout) {
  KiWiConfig config;
  config.chunk_capacity = 64;
  std::vector<KiWiMap::Entry> entries;
  for (Key k = 1; k <= 200; ++k) entries.push_back({k, k});
  KiWiMap map(std::span<const KiWiMap::Entry>(entries), config);

  const obs::ChunkCensus census = map.Census();
  // 200 keys at 32 (half of 64) per chunk, carved as a rebalance build
  // would: the 8-key tail is sparse (under a quarter of 64) and folds into
  // its predecessor, so six chunks of which the last holds 40.
  EXPECT_EQ(census.chunks, 6u);
  EXPECT_EQ(census.allocated_cells, 200u);
  EXPECT_DOUBLE_EQ(census.avg_fill, 200.0 / (6 * 64));
  // Bulk-loaded chunks are entirely sorted prefix: every chunk lands in the
  // top batched-ratio decile and no rebalance is pending.
  EXPECT_EQ(census.batched_cells, 200u);
  EXPECT_EQ(census.batched_hist[obs::ChunkCensus::kDecileBuckets - 1],
            census.chunks);
  EXPECT_DOUBLE_EQ(census.batched_ratio, 1.0);
  EXPECT_EQ(census.normal, census.chunks);
  EXPECT_EQ(census.infant, 0u);
  EXPECT_EQ(census.frozen, 0u);
  EXPECT_EQ(census.engaged, 0u);

  std::uint64_t fill_total = 0;
  for (const std::uint64_t bucket : census.fill_hist) fill_total += bucket;
  EXPECT_EQ(fill_total, census.chunks);

  EXPECT_LE(census.age_min_ns, census.age_max_ns);
  EXPECT_GE(census.age_mean_ns, static_cast<double>(census.age_min_ns));
  EXPECT_LE(census.age_mean_ns, static_cast<double>(census.age_max_ns));

  EXPECT_TRUE(JsonChecker(census.ToJson()).Valid()) << census.ToJson();
}

TEST(Census, DecileBucketing) {
  EXPECT_EQ(obs::ChunkCensus::DecileFor(-0.5), 0u);
  EXPECT_EQ(obs::ChunkCensus::DecileFor(0.0), 0u);
  EXPECT_EQ(obs::ChunkCensus::DecileFor(0.05), 0u);
  EXPECT_EQ(obs::ChunkCensus::DecileFor(0.10), 1u);
  EXPECT_EQ(obs::ChunkCensus::DecileFor(0.95), 9u);
  EXPECT_EQ(obs::ChunkCensus::DecileFor(1.0), 9u);
  EXPECT_EQ(obs::ChunkCensus::DecileFor(3.0), 9u);  // overfull clamps
}

// ---- the live pump -----------------------------------------------------

TEST(MetricsPump, SinkSeesMonotoneSamplesAndOnePumpPerMap) {
  KiWiMap map;
  std::mutex mu;
  std::vector<obs::MetricsSample> samples;
  obs::MetricsPumpOptions options;
  options.interval = std::chrono::milliseconds(5);
  options.sink = [&](const obs::MetricsSample& s) {
    std::lock_guard<std::mutex> lock(mu);
    samples.push_back(s);
  };
  ASSERT_TRUE(map.StartMetricsPump(options));
  EXPECT_FALSE(map.StartMetricsPump(options)) << "at most one pump per map";

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  Key key = 1;
  while (true) {
    for (int i = 0; i < 1000; ++i) map.Put(key++ % 50000 + 1, 7);
    std::lock_guard<std::mutex> lock(mu);
    if (samples.size() >= 3) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
  }
  map.StopMetricsPump();
  map.StopMetricsPump();  // idempotent

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(samples.size(), 3u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].pump, samples[0].pump);
    EXPECT_EQ(samples[i].seq, samples[i - 1].seq + 1);
    EXPECT_GE(samples[i].uptime_s, samples[i - 1].uptime_s);
#if KIWI_OBS_ENABLED
    EXPECT_GE(samples[i].report.counters.puts,
              samples[i - 1].report.counters.puts)
        << "cumulative counters must be monotone within a pump";
#endif
    EXPECT_TRUE(JsonChecker(samples[i].ToJsonl()).Valid());
  }
#if KIWI_OBS_ENABLED
  EXPECT_GT(samples.back().report.counters.puts, 0u);
#endif
}

TEST(MetricsPump, JsonlFileRoundTripAndFinalFlush) {
  const std::string path = "export_test_pump.jsonl";
  std::remove(path.c_str());
  {
    KiWiMap map;
    obs::MetricsPumpOptions options;
    options.interval = std::chrono::milliseconds(50);
    options.jsonl_path = path;
    ASSERT_TRUE(map.StartMetricsPump(options));
    for (Key k = 1; k <= 2000; ++k) map.Put(k, k);
    // Destructor path: ~KiWiMap stops the pump, which flushes one final
    // sample even if no interval ever elapsed.
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  std::uint64_t previous_seq = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
    EXPECT_NE(line.find("\"kiwi_metrics\":2"), std::string::npos);
    const std::size_t seq_at = line.find("\"seq\":");
    ASSERT_NE(seq_at, std::string::npos);
    const std::uint64_t seq = std::strtoull(
        line.c_str() + seq_at + 6, nullptr, 10);
    if (lines > 0) {
      EXPECT_EQ(seq, previous_seq + 1);
    }
    previous_seq = seq;
    ++lines;
  }
  EXPECT_GE(lines, 1u);
  std::remove(path.c_str());
}

TEST(MetricsPump, WritePromServesTheLatestSample) {
  KiWiMap map;
  obs::MetricsPumpOptions options;
  options.interval = std::chrono::milliseconds(3600 * 1000);  // never ticks
  ASSERT_TRUE(map.StartMetricsPump(options));
  for (Key k = 1; k <= 100; ++k) map.Put(k, k);
  map.StopMetricsPump();  // the final flush produces the one sample

  // The pump is gone; drive a fresh one through the public surface to read
  // the exposition before and after a tick.
  obs::MetricsPump pump([&map] { return map.DebugReport(); }, options);
  std::ostringstream prom;
  EXPECT_FALSE(pump.WriteProm(prom)) << "no sample before the first tick";
  pump.Stop();
  EXPECT_TRUE(pump.WriteProm(prom));
  EXPECT_EQ(CheckPromExposition(prom.str()), "");
}

// ---- contention teeth --------------------------------------------------
// Drive a contended-CAS path deterministically (no scheduler luck needed,
// works on a single core): while a put is parked in the
// put_before_version_cas window it still occupies this thread's PPA slot in
// the chunk, so a nested put into the same chunk MUST lose its publish CAS
// — exactly the event ppa_publish_fails records — and then complete through
// the rebalance it triggers.

KiWiMap* g_teeth_map = nullptr;
std::atomic<int> g_teeth_fires{0};

void NestedPutHook(TestHooks::Site) {
  static thread_local bool inside = false;
  if (inside || g_teeth_map == nullptr) return;
  if (g_teeth_fires.fetch_add(1) != 0) return;  // nest only the first window
  inside = true;
  g_teeth_map->Put(2, 99);
  inside = false;
}

TEST(ContentionTeeth, StalledPublishWindowRecordsPpaPublishFail) {
  KiWiConfig config;
  config.rebalance_probability = 0.0;  // only full/frozen chunks rebalance,
                                       // so the nested put must reach the
                                       // publish CAS (and lose it)
  KiWiMap map(config);
  map.Put(1, 1);  // warm before installing the hook
  g_teeth_map = &map;
  g_teeth_fires.store(0);
  {
    TestHooks::Scoped install(TestHooks::kPutBeforeVersionCas,
                              NestedPutHook);
    map.Put(3, 3);
  }
  g_teeth_map = nullptr;
  EXPECT_GE(g_teeth_fires.load(), 1);
  map.CheckInvariants();
  // Both the stalled outer put and the nested one must have landed.
  EXPECT_EQ(map.Get(2), std::optional<Value>(99));
  EXPECT_EQ(map.Get(3), std::optional<Value>(3));

#if KIWI_OBS_ENABLED
  const obs::DebugReport report = map.DebugReport();
  const obs::OpCounters& c = report.counters;
  EXPECT_GT(c.ppa_publish_fails, 0u)
      << "the nested put raced an occupied PPA slot yet no publish "
         "failure was recorded — the contention counters are not wired";
  // The derived retries total is the six retried-CAS counters' sum, and
  // every rendered counter object ends with it.
  const std::uint64_t sum = c.put_link_retries + c.ppa_publish_fails +
                            c.engage_cas_fails + c.freeze_cas_retries +
                            c.splice_retries + c.index_cas_retries;
  EXPECT_EQ(c.Retries(), sum);
  const std::string total = std::to_string(sum);
  EXPECT_NE(report.ToText().find(" retries=" + total), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"retries\":" + total + "}"),
            std::string::npos);
  // A first pump sample's deltas equal the counters and its rates are
  // deltas / 1: counters, deltas and rates all end with the total.
  obs::MetricsAggregator agg(1);
  const std::string line = agg.Ingest(report, 0.0).ToJsonl();
  const std::string needle = "\"retries\":" + total + "}";
  std::size_t objects = 0;
  for (std::size_t at = line.find(needle); at != std::string::npos;
       at = line.find(needle, at + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, 3u) << line;
#endif
}

// ---- docs pinning ------------------------------------------------------
// Every counter, gauge and census-scalar name in the canonical X-macro
// lists, and the derived retries total, must appear in
// docs/OBSERVABILITY.md, so the schema tables cannot silently drift.

#ifdef KIWI_SOURCE_DIR
TEST(ObsDocs, EveryCounterAndGaugeIsDocumented) {
  std::ifstream doc(std::string(KIWI_SOURCE_DIR) +
                    "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(doc.good()) << "docs/OBSERVABILITY.md not found";
  std::stringstream buffer;
  buffer << doc.rdbuf();
  const std::string text = buffer.str();
#define KIWI_OBS_CHECK_DOC(name)                          \
  EXPECT_NE(text.find("`" #name "`"), std::string::npos)  \
      << #name " missing from docs/OBSERVABILITY.md";
  KIWI_OBS_COUNTER_FIELDS(KIWI_OBS_CHECK_DOC)
  KIWI_OBS_GAUGE_FIELDS(KIWI_OBS_CHECK_DOC)
  KIWI_OBS_CENSUS_FIELDS(KIWI_OBS_CHECK_DOC)
  KIWI_OBS_CHECK_DOC(retries)
#undef KIWI_OBS_CHECK_DOC
}

std::string ReadDoc(const char* name) {
  std::ifstream doc(std::string(KIWI_SOURCE_DIR) + "/docs/" + name);
  std::stringstream buffer;
  buffer << doc.rdbuf();
  return buffer.str();
}

// Every flight-recorder event, including the begin/end events exported as
// the `args.ev` of a span, is named in the event schema table.
TEST(ObsDocs, EveryTraceEventIsDocumented) {
  const std::string text = ReadDoc("OBSERVABILITY.md");
  ASSERT_FALSE(text.empty()) << "docs/OBSERVABILITY.md not found";
#define KIWI_TRACE_CHECK_DOC(id, name, hex, phase, span) \
  EXPECT_NE(text.find("`" name "`"), std::string::npos)  \
      << name " missing from docs/OBSERVABILITY.md";
  KIWI_TRACE_EVENTS(KIWI_TRACE_CHECK_DOC)
#undef KIWI_TRACE_CHECK_DOC
}

// Every latency metric has a row in the latency histogram table.
TEST(ObsDocs, EveryLatencyMetricIsDocumented) {
  const std::string text = ReadDoc("OBSERVABILITY.md");
  ASSERT_FALSE(text.empty()) << "docs/OBSERVABILITY.md not found";
#define KIWI_OBS_CHECK_LATENCY_DOC(id, name)                 \
  EXPECT_NE(text.find("| `" name "` |"), std::string::npos) \
      << name " missing from docs/OBSERVABILITY.md's latency table";
  KIWI_OBS_LATENCY_METRICS(KIWI_OBS_CHECK_LATENCY_DOC)
#undef KIWI_OBS_CHECK_LATENCY_DOC
}

// docs/TESTING.md maps every hook site as "| i | `name` |" and every mutant
// as "| `name` | 0xN |", in the lists' order and bits.
TEST(TestingDocs, EveryHookSiteAndMutantIsMapped) {
  const std::string text = ReadDoc("TESTING.md");
  ASSERT_FALSE(text.empty()) << "docs/TESTING.md not found";
  for (std::size_t i = 0; i < TestHooks::kSiteCount; ++i) {
    const std::string row = "| " + std::to_string(i) + " | `" +
                            TestHooks::kSiteNames[i] + "` |";
    EXPECT_NE(text.find(row), std::string::npos) << row;
  }
  for (std::size_t m = 0; m < TestHooks::kMutantCount; ++m) {
    char mask[16];
    std::snprintf(mask, sizeof(mask), "0x%x", 1u << m);
    const std::string row = std::string("| `") + TestHooks::kMutantNames[m] +
                            "` | " + mask + " |";
    EXPECT_NE(text.find(row), std::string::npos) << row;
  }
}
#endif

}  // namespace
}  // namespace kiwi::core
