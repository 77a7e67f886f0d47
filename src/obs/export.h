// Continuous telemetry: the metrics pump and its export formats.
//
// A MetricsPump is an optional background thread that, every `interval`,
// snapshots a map's DebugReport (cumulative counters, latency digests,
// census, gauges), computes counter deltas and per-second rates against the
// previous tick, and ships the sample out through any of three channels:
//
//   * JSONL — one self-describing JSON object per line appended to a file
//     ("-" = stdout), the format scripts/kiwi_top.py tails;
//   * Prometheus text exposition — the latest sample rendered to a file
//     each tick (atomically: write temp, rename) or on demand through
//     MetricsPump::WriteProm(std::ostream&);
//   * MetricsSink — an in-process callback per sample.
//
// The pump is observation-only: it holds no map locks, and each snapshot
// costs one DebugReport (one O(chunks) walk and a shard sum).  It works in
// a KIWI_STATS=OFF build too — counters and latency read zero there, but
// the census and gauges stay live.
//
// Schema and metric names are documented in docs/OBSERVABILITY.md
// ("Continuous telemetry"); change them together.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "obs/report.h"

namespace kiwi::obs {

/// One pump tick: the cumulative snapshot plus the derived deltas/rates.
struct MetricsSample {
  /// Process-unique pump instance id (monotone from 1).  JSONL streams from
  /// several maps (or one map restarted) can share a file; consumers group
  /// by (pump, seq) — within one pump id, seq and every cumulative counter
  /// are monotone.
  std::uint64_t pump = 0;
  std::uint64_t seq = 0;        // 0 for the first sample of a pump
  double uptime_s = 0;          // seconds since the pump started
  double interval_s = 0;        // measured seconds since the previous sample

  DebugReport report;  // cumulative counters, latency, census, gauges

  /// Counter increments since the previous sample (== report.counters on
  /// the first sample of a pump).
  OpCounters deltas;

  /// True from the second sample on: deltas/rates are meaningful.
  bool have_deltas = false;

  /// One JSONL line (no trailing newline); schema in docs/OBSERVABILITY.md:
  /// the pump fields, deltas and rates, then the report's ToJson fields.
  /// Rates are emitted as deltas / interval_s, so they are derivable — the
  /// line carries them pre-computed for dumb consumers (kiwi_top, jq).
  std::string ToJsonl() const;

  /// Prometheus text exposition (# TYPE'd counters, gauges, census scalars,
  /// the census fill and batched-ratio deciles as native histograms, latency
  /// percentiles as labeled gauges), each value once.  Counter names follow
  /// kiwi_<field>_total, gauges kiwi_<field>, census kiwi_census_<field>.
  void WriteProm(std::ostream& out) const;
};

/// Per-sample callback (runs on the pump thread; keep it quick).
using MetricsSink = std::function<void(const MetricsSample&)>;

struct MetricsPumpOptions {
  /// Tick period.  Clamped to >= 1ms by the pump.
  std::chrono::milliseconds interval{1000};
  /// JSONL destination: "" = none, "-" = stdout, else a path opened in
  /// append mode.
  std::string jsonl_path;
  /// Prometheus destination: "" = none, else a path rewritten every tick
  /// (write temp + rename, so scrapers never see a torn file).
  std::string prom_path;
  /// Optional in-process consumer.
  MetricsSink sink;
};

/// The delta/rate math, separated from the pump thread so it is unit-testable
/// with hand-built reports: feed successive cumulative snapshots, get
/// samples with deltas filled in.
class MetricsAggregator {
 public:
  explicit MetricsAggregator(std::uint64_t pump_id) : pump_id_(pump_id) {}

  /// Ingest the next cumulative snapshot taken `elapsed_s` seconds after
  /// the previous one (ignored for the first).  Returns the derived sample.
  MetricsSample Ingest(const DebugReport& report, double elapsed_s);

 private:
  std::uint64_t pump_id_;
  std::uint64_t next_seq_ = 0;
  double uptime_s_ = 0;
  bool have_prev_ = false;
  OpCounters prev_;
};

/// Parse a KIWI_METRICS-style duration: decimal digits with an "ms" or "s"
/// suffix ("250ms", "1s"); bare digits mean milliseconds.  Returns false
/// (out untouched) on anything else, including zero.
bool ParseMetricsInterval(const std::string& text,
                          std::chrono::milliseconds* out);

/// Build pump options from a KIWI_METRICS value ("<interval>[:<path>]") and
/// an optional KIWI_METRICS_PROM path (may be nullptr/empty).  With no
/// ":<path>" the JSONL stream goes to stdout — the pipe-into-kiwi_top
/// quickstart.  Returns false and leaves `out` untouched on a malformed
/// interval or an empty/null spec.
bool ParseMetricsEnv(const char* spec, const char* prom_path,
                     MetricsPumpOptions* out);

/// The background thread.  Construction starts it; destruction (or Stop())
/// joins it after one final flush tick, so short runs still produce at
/// least one sample.  Owned by KiWiMap through an opaque pointer — see
/// KiWiMap::StartMetricsPump / StopMetricsPump.
class MetricsPump {
 public:
  /// `report` is what the pump samples each tick, on the pump thread.  The
  /// pump is layout-agnostic: any map instantiation (int64 or bytes) plugs
  /// in by binding its DebugReport() member.
  MetricsPump(std::function<DebugReport()> report, MetricsPumpOptions options);
  ~MetricsPump();
  MetricsPump(const MetricsPump&) = delete;
  MetricsPump& operator=(const MetricsPump&) = delete;

  /// Signal the thread, wait for it to flush a final sample, and join.
  /// Idempotent.
  void Stop();

  /// Render the most recent sample as Prometheus text exposition.  Returns
  /// false (writes nothing) before the first tick lands.
  bool WriteProm(std::ostream& out) const;

  /// The most recent sample (copy).  False before the first tick.
  bool LatestSample(MetricsSample* out) const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace kiwi::obs
