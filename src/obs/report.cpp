// DebugReport assembly and rendering.
//
// KiWiMap::DebugReport() lives here, not in src/core/, so that core objects
// carry no reference to the rendering code (and, in a KIWI_STATS=OFF build,
// no obs references at all).  The JSON schema emitted by ToJson() is the
// contract documented in docs/OBSERVABILITY.md — change them together.
#include "obs/report.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "core/kiwi_map.h"
#include "obs/census.h"

namespace kiwi::obs {

namespace {

// printf-append onto a std::string (keeps formatting snprintf-exact, which
// matters for the JSON contract: %.17g round-trips doubles, no locale).
void Append(std::string& out, const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  const int written = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (written > 0) out.append(buffer, static_cast<std::size_t>(written));
}

LatencySummary Summarize(const LatencyHistogram& hist) {
  const HistogramSnapshot snap = hist.Snapshot();
  LatencySummary summary;
  summary.count = snap.count;
  summary.p50 = snap.P50();
  summary.p99 = snap.P99();
  summary.p999 = snap.P999();
  summary.max = snap.max;
  summary.mean_ns = snap.Mean();
  return summary;
}

}  // namespace

std::string DebugReport::ToText() const {
  std::string out;
  Append(out, "KiWi DebugReport (stats %s)\n",
         stats_enabled ? "on" : "off — counters/latency read zero");
  // Counters and integer gauges print as name=value straight from their
  // canonical field lists, wrapped to stay within 80 columns.
  std::string line;
  const auto field = [&out, &line](const char* name, std::uint64_t value) {
    char text[96];
    std::snprintf(text, sizeof(text), " %s=%llu", name,
                  (unsigned long long)value);
    if (!line.empty() && line.size() + std::strlen(text) > 79) {
      out += " " + line + "\n";
      line.clear();
    }
    line += text;
  };
  const auto end_lines = [&out, &line] {
    if (!line.empty()) out += " " + line + "\n";
    line.clear();
  };
  out += " counters:\n";
#define KIWI_OBS_TEXT_COUNTER(name) field(#name, counters.name);
  KIWI_OBS_COUNTER_FIELDS(KIWI_OBS_TEXT_COUNTER)
#undef KIWI_OBS_TEXT_COUNTER
  end_lines();
  Append(out,
         " latency (ns; put/get/scan sampled 1 in %u, rebalance exhaustive):\n",
         1u << StatsRegistry::kSampleShift);
  for (std::size_t i = 0; i < kLatencyCount; ++i) {
    const LatencySummary& s = latency[i];
    Append(out,
           "  %-17s count=%-8llu p50=%-8llu p99=%-8llu p999=%-8llu "
           "max=%-8llu mean=%.1f\n",
           LatencyName(static_cast<Latency>(i)), (unsigned long long)s.count,
           (unsigned long long)s.p50, (unsigned long long)s.p99,
           (unsigned long long)s.p999, (unsigned long long)s.max, s.mean_ns);
  }
  out += " gauges:\n";
#define KIWI_OBS_TEXT_GAUGE(name) field(#name, gauges.name);
  KIWI_OBS_GAUGE_FIELDS(KIWI_OBS_TEXT_GAUGE)
#undef KIWI_OBS_TEXT_GAUGE
  end_lines();
  Append(out, "  avg_fill=%.3f batched_ratio=%.3f\n", gauges.avg_fill,
         gauges.batched_ratio);
  return out;
}

std::string DebugReport::ToJson() const {
  std::string out;
  out += "{\"kiwi_debug_report\":1,\"stats_enabled\":";
  out += stats_enabled ? "true" : "false";
  const OpCounters& c = counters;
  const auto field = [&out](const char* name, std::uint64_t value,
                            bool last = false) {
    Append(out, "\"%s\":%llu%s", name, (unsigned long long)value,
           last ? "" : ",");
  };
  // The counter object is generated from the canonical field list, so the
  // JSON order *is* KIWI_OBS_COUNTER_FIELDS order by construction.
  out += ",\"counters\":{";
#define KIWI_OBS_EMIT_COUNTER(name) field(#name, c.name);
  KIWI_OBS_COUNTER_FIELDS(KIWI_OBS_EMIT_COUNTER)
#undef KIWI_OBS_EMIT_COUNTER
  out.pop_back();  // trailing comma from the last field
  out += "},\"latency_ns\":{";
  for (std::size_t i = 0; i < kLatencyCount; ++i) {
    const LatencySummary& s = latency[i];
    Append(out, "\"%s\":{", LatencyName(static_cast<Latency>(i)));
    field("count", s.count);
    field("p50", s.p50);
    field("p99", s.p99);
    field("p999", s.p999);
    field("max", s.max);
    Append(out, "\"mean\":%.17g}%s", s.mean_ns,
           i + 1 < kLatencyCount ? "," : "");
  }
  // Integer gauges in KIWI_OBS_GAUGE_FIELDS order, then the two doubles.
  out += "},\"gauges\":{";
#define KIWI_OBS_EMIT_GAUGE(name) field(#name, gauges.name);
  KIWI_OBS_GAUGE_FIELDS(KIWI_OBS_EMIT_GAUGE)
#undef KIWI_OBS_EMIT_GAUGE
  Append(out, "\"avg_fill\":%.17g,\"batched_ratio\":%.17g}}", gauges.avg_fill,
         gauges.batched_ratio);
  return out;
}

}  // namespace kiwi::obs

namespace kiwi::core {

template <typename Layout>
obs::DebugReport KiWiMapT<Layout>::DebugReport() {
  obs::DebugReport report;
#if KIWI_OBS_ENABLED
  report.stats_enabled = true;
  report.counters = obs_.Aggregate();
  for (std::size_t i = 0; i < obs::kLatencyCount; ++i) {
    report.latency[i] =
        obs::Summarize(obs_.Hist(static_cast<obs::Latency>(i)));
  }
#endif
  // Gauges are computed from the live structure regardless of the stats
  // gate.  Structure numbers come from one Census() walk; the PSA walks
  // look at every slot (64 loads — occupancy must count exited threads'
  // leaks too).
  const obs::ChunkCensus census = Census();
  report.gauges.chunks = census.chunks;
  report.gauges.allocated_cells = census.allocated_cells;
  report.gauges.batched_cells = census.batched_cells;
  report.gauges.avg_fill = census.avg_fill;
  report.gauges.batched_ratio = census.batched_ratio;
  for (std::size_t t = 0; t < kMaxThreads; ++t) {
    if (psa_.Slot(t).Load().ver != kNoVersion) report.gauges.psa_active++;
    for (const auto& array : snapshot_psa_) {
      if (array.Slot(t).Load().ver != kNoVersion) {
        report.gauges.snapshot_pins++;
      }
    }
  }
  report.gauges.ebr_pending = ebr_.PendingCount();
  report.gauges.ebr_pending_bytes = ebr_.PendingBytes();
  report.gauges.ebr_epoch = ebr_.GlobalEpoch();
  report.gauges.ebr_epoch_lag = ebr_.EpochLag();
  report.gauges.global_version = gv_.Load();
  report.gauges.memory_bytes = MemoryFootprint();
  const reclaim::SlabPool::Stats pool = pool_.GetStats();
  report.gauges.pool_hits = pool.hits;
  report.gauges.pool_misses = pool.misses;
  report.gauges.pool_recycled = pool.recycled;
  report.gauges.pool_class_retries = pool.class_cas_retries;
  report.gauges.pool_live_bytes = pool.live_bytes;
  report.gauges.pool_pooled_bytes = pool.pooled_bytes;
  return report;
}

// Member instantiations (the core TU's class-level instantiation skips
// obs-bound members; see kiwi_map.cpp).
template obs::DebugReport KiWiMapT<Int64Layout>::DebugReport();
template obs::DebugReport KiWiMapT<ByteLayout>::DebugReport();

}  // namespace kiwi::core
