// Metrics pump, aggregator and export formats (JSONL + Prometheus).
//
// KiWiMap::StartMetricsPump / StartMetricsPumpFromEnv / StopMetricsPump are
// defined at the bottom of this file — not in src/core/ — so that core
// objects reference the pump only through the opaque `pump_` pointer and a
// KIWI_STATS=OFF build keeps core symbol sets obs-free (the same split as
// DebugReport and Census).
#include "obs/export.h"

#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <thread>

#include "core/kiwi_map.h"
#include "obs/render.h"

namespace kiwi::obs {

namespace {

/// Process-wide pump instance ids, so interleaved JSONL streams stay
/// groupable (field "pump"; monotone from 1).
std::atomic<std::uint64_t> g_next_pump_id{1};

}  // namespace

// ---- aggregator --------------------------------------------------------

MetricsSample MetricsAggregator::Ingest(const DebugReport& report,
                                        double elapsed_s) {
  MetricsSample sample;
  sample.pump = pump_id_;
  sample.seq = next_seq_++;
  sample.report = report;
  if (have_prev_) {
    uptime_s_ += elapsed_s;
    sample.interval_s = elapsed_s;
    sample.have_deltas = true;
    // Counters are monotone per shard but aggregated concurrently, so a
    // racing read can momentarily run a field backwards; clamp at zero so
    // deltas (and the JSONL stream's rates) never go negative.
    const OpCounters& now = report.counters;
#define KIWI_OBS_DELTA(name) \
  sample.deltas.name = now.name >= prev_.name ? now.name - prev_.name : 0;
    KIWI_OBS_COUNTER_FIELDS(KIWI_OBS_DELTA)
#undef KIWI_OBS_DELTA
  } else {
    // First sample: deltas == cumulative (everything since map creation).
    sample.deltas = report.counters;
    sample.interval_s = 0;
  }
  sample.uptime_s = uptime_s_;
  prev_ = report.counters;
  have_prev_ = true;
  return sample;
}

// ---- JSONL --------------------------------------------------------------

std::string MetricsSample::ToJsonl() const {
  std::string out;
  // "kiwi_metrics" is the stream marker kiwi_top (and any consumer of a
  // mixed stdout stream) keys on, and the schema version: bump it whenever
  // the schema breaks.
  Append(out, "{\"kiwi_metrics\":2,\"pump\":%llu,\"seq\":%llu,",
         (unsigned long long)pump, (unsigned long long)seq);
  Append(out, "\"uptime_s\":%.6g,\"interval_s\":%.6g,\"deltas\":", uptime_s,
         interval_s);
  AppendCounterObject(out, deltas);
  out += ",\"rates\":{";
  const double denom = interval_s > 0 ? interval_s : 1.0;
  deltas.ForEachRendered([&out, denom](const char* name, std::uint64_t value) {
    Append(out, "\"%s\":%.6g,", name, static_cast<double>(value) / denom);
  });
  out.back() = '}';
  out += ',';
  report.AppendJsonFields(out);
  out += '}';
  return out;
}

// ---- Prometheus ---------------------------------------------------------

namespace {

void PromDecileHistogram(
    std::ostream& out, const char* name,
    const std::array<std::uint64_t, ChunkCensus::kDecileBuckets>& hist,
    double approx_sum) {
  out << "# TYPE " << name << " histogram\n";
  std::uint64_t cumulative = 0;
  char le[16];
  for (std::size_t i = 0; i < hist.size(); ++i) {
    cumulative += hist[i];
    std::snprintf(le, sizeof(le), "%.1f", (i + 1) * 0.1);
    out << name << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
  }
  out << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
  out << name << "_sum " << approx_sum << "\n";
  out << name << "_count " << cumulative << "\n";
}

}  // namespace

void MetricsSample::WriteProm(std::ostream& out) const {
  // Pump meta.
  out << "# TYPE kiwi_pump_seq counter\nkiwi_pump_seq{pump=\"" << pump
      << "\"} " << seq << "\n";
  out << "# TYPE kiwi_pump_uptime_seconds gauge\nkiwi_pump_uptime_seconds "
      << uptime_s << "\n";
  // Counters: cumulative, kiwi_<field>_total.
#define KIWI_OBS_EMIT(name)                            \
  out << "# TYPE kiwi_" #name "_total counter\n"       \
      << "kiwi_" #name "_total " << report.counters.name << "\n";
  KIWI_OBS_COUNTER_FIELDS(KIWI_OBS_EMIT)
#undef KIWI_OBS_EMIT
  // Gauges: kiwi_<field>.
#define KIWI_OBS_EMIT(name)                  \
  out << "# TYPE kiwi_" #name " gauge\n"     \
      << "kiwi_" #name " " << report.gauges.name << "\n";
  KIWI_OBS_GAUGE_FIELDS(KIWI_OBS_EMIT)
#undef KIWI_OBS_EMIT
  // Census scalars: kiwi_census_<field>.  The two per-chunk means are
  // the _sum/_count of the decile histograms below, so they get no series
  // of their own.
  const ChunkCensus& census = report.census;
#define KIWI_OBS_EMIT(name)                        \
  out << "# TYPE kiwi_census_" #name " gauge\n"    \
      << "kiwi_census_" #name " " << census.name << "\n";
  KIWI_OBS_CENSUS_FIELDS(KIWI_OBS_EMIT)
#undef KIWI_OBS_EMIT
  out << "# TYPE kiwi_census_age_mean_ns gauge\nkiwi_census_age_mean_ns "
      << census.age_mean_ns << "\n";
  // Distribution histograms.  Each _sum is the census's per-chunk mean
  // times chunks (the census stores deciles, not raw sums).
  PromDecileHistogram(out, "kiwi_chunk_fill", census.fill_hist,
                      census.avg_fill * static_cast<double>(census.chunks));
  PromDecileHistogram(out, "kiwi_chunk_batched_ratio", census.batched_hist,
                      census.batched_ratio *
                          static_cast<double>(census.chunks));
  // Latency digests as labeled gauges (the histograms are internal;
  // percentile gauges are what dashboards actually plot).
  out << "# TYPE kiwi_latency_ns gauge\n";
  static const char* const kStats[] = {"count", "p50", "p99", "p999", "max"};
  for (std::size_t i = 0; i < kLatencyCount; ++i) {
    const LatencySummary& s = report.latency[i];
    const std::uint64_t values[] = {s.count, s.p50, s.p99, s.p999, s.max};
    const char* op = LatencyName(static_cast<Latency>(i));
    for (std::size_t j = 0; j < 5; ++j) {
      out << "kiwi_latency_ns{op=\"" << op << "\",stat=\"" << kStats[j]
          << "\"} " << values[j] << "\n";
    }
  }
}

// ---- env parsing --------------------------------------------------------

bool ParseMetricsInterval(const std::string& text,
                          std::chrono::milliseconds* out) {
  std::size_t i = 0;
  while (i < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  if (i == 0) return false;
  const std::uint64_t value = std::strtoull(text.substr(0, i).c_str(),
                                            nullptr, 10);
  const std::string suffix = text.substr(i);
  std::uint64_t ms;
  if (suffix.empty() || suffix == "ms") {
    ms = value;
  } else if (suffix == "s") {
    ms = value * 1000;
  } else {
    return false;
  }
  if (ms == 0) return false;
  *out = std::chrono::milliseconds(ms);
  return true;
}

bool ParseMetricsEnv(const char* spec, const char* prom_path,
                     MetricsPumpOptions* out) {
  if (spec == nullptr || spec[0] == '\0') return false;
  const std::string text(spec);
  const std::size_t colon = text.find(':');
  MetricsPumpOptions options;
  if (!ParseMetricsInterval(text.substr(0, colon), &options.interval)) {
    return false;
  }
  // No ":<path>" means stdout — `KIWI_METRICS=1s kiwi_bench | kiwi_top.py`.
  options.jsonl_path =
      colon == std::string::npos ? "-" : text.substr(colon + 1);
  if (prom_path != nullptr && prom_path[0] != '\0') {
    options.prom_path = prom_path;
  }
  *out = options;
  return true;
}

// ---- pump ---------------------------------------------------------------

struct MetricsPump::Impl {
  std::function<DebugReport()> report;
  MetricsPumpOptions options;
  MetricsAggregator agg;

  std::FILE* jsonl = nullptr;  // nullptr = no JSONL channel
  bool jsonl_owned = false;    // false when jsonl aliases stdout

  mutable std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  bool stopped = false;  // Stop() ran to completion (idempotence)
  bool have_latest = false;
  MetricsSample latest;
  std::thread thread;
  std::chrono::steady_clock::time_point prev;

  Impl(std::function<DebugReport()> report_arg,
       MetricsPumpOptions options_arg, std::uint64_t pump_id)
      : report(std::move(report_arg)),
        options(std::move(options_arg)),
        agg(pump_id) {}

  void Tick() {
    const auto now = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - prev).count();
    prev = now;
    const MetricsSample sample = agg.Ingest(report(), elapsed);
    if (jsonl != nullptr) {
      const std::string line = sample.ToJsonl();
      std::fwrite(line.data(), 1, line.size(), jsonl);
      std::fputc('\n', jsonl);
      std::fflush(jsonl);  // tailers (kiwi_top) want whole lines promptly
    }
    if (!options.prom_path.empty()) {
      // Write-then-rename so a concurrent scraper never reads a torn file.
      const std::string tmp = options.prom_path + ".tmp";
      {
        std::ofstream prom(tmp, std::ios::trunc);
        if (prom) sample.WriteProm(prom);
      }
      std::rename(tmp.c_str(), options.prom_path.c_str());
    }
    if (options.sink) options.sink(sample);
    {
      std::lock_guard<std::mutex> lock(mu);
      latest = sample;
      have_latest = true;
    }
  }

  void Run() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stop) {
      if (cv.wait_for(lock, options.interval, [this] { return stop; })) {
        break;
      }
      lock.unlock();
      Tick();
      lock.lock();
    }
    // The final flush happens in Stop(), after the join, so it also covers
    // runs shorter than one interval.
  }
};

MetricsPump::MetricsPump(std::function<DebugReport()> report,
                         MetricsPumpOptions options) {
  if (options.interval < std::chrono::milliseconds(1)) {
    options.interval = std::chrono::milliseconds(1);
  }
  impl_ = new Impl(std::move(report), std::move(options),
                   g_next_pump_id.fetch_add(1, std::memory_order_relaxed));
  if (impl_->options.jsonl_path == "-") {
    impl_->jsonl = stdout;
  } else if (!impl_->options.jsonl_path.empty()) {
    impl_->jsonl = std::fopen(impl_->options.jsonl_path.c_str(), "ae");
    if (impl_->jsonl == nullptr) {  // "e" (O_CLOEXEC) may be unsupported
      impl_->jsonl = std::fopen(impl_->options.jsonl_path.c_str(), "a");
    }
    impl_->jsonl_owned = impl_->jsonl != nullptr;
  }
  impl_->prev = std::chrono::steady_clock::now();
  impl_->thread = std::thread([impl = impl_] { impl->Run(); });
}

MetricsPump::~MetricsPump() {
  Stop();
  if (impl_->jsonl_owned) std::fclose(impl_->jsonl);
  delete impl_;
}

void MetricsPump::Stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stopped) return;
    impl_->stopped = true;
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
  impl_->Tick();  // final sample: short runs still produce >= 1
}

bool MetricsPump::WriteProm(std::ostream& out) const {
  MetricsSample sample;
  if (!LatestSample(&sample)) return false;
  sample.WriteProm(out);
  return true;
}

bool MetricsPump::LatestSample(MetricsSample* out) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (!impl_->have_latest) return false;
  *out = impl_->latest;
  return true;
}

}  // namespace kiwi::obs

// ---- KiWiMap wiring -----------------------------------------------------

namespace kiwi::core {

template <typename Layout>
bool KiWiMapT<Layout>::StartMetricsPump(
    const obs::MetricsPumpOptions& options) {
  if (pump_ != nullptr) return false;
  pump_ = new obs::MetricsPump([this] { return this->DebugReport(); },
                               options);
  return true;
}

template <typename Layout>
bool KiWiMapT<Layout>::StartMetricsPumpFromEnv() {
  obs::MetricsPumpOptions options;
  if (!obs::ParseMetricsEnv(std::getenv("KIWI_METRICS"),
                            std::getenv("KIWI_METRICS_PROM"), &options)) {
    return false;
  }
  return StartMetricsPump(options);
}

template <typename Layout>
void KiWiMapT<Layout>::StopMetricsPump() {
  delete pump_;  // MetricsPump's destructor stops, joins and flushes
  pump_ = nullptr;
}

// Member instantiations (the core TU's class-level instantiation skips
// obs-bound members; see kiwi_map.cpp).
template bool KiWiMapT<Int64Layout>::StartMetricsPump(
    const obs::MetricsPumpOptions&);
template bool KiWiMapT<ByteLayout>::StartMetricsPump(
    const obs::MetricsPumpOptions&);
template bool KiWiMapT<Int64Layout>::StartMetricsPumpFromEnv();
template bool KiWiMapT<ByteLayout>::StartMetricsPumpFromEnv();
template void KiWiMapT<Int64Layout>::StopMetricsPump();
template void KiWiMapT<ByteLayout>::StopMetricsPump();

}  // namespace kiwi::core
