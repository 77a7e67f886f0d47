// DebugReport assembly and rendering.
//
// KiWiMap::DebugReport() lives here, not in src/core/, so that core objects
// carry no reference to the rendering code (and, in a KIWI_STATS=OFF build,
// no obs references at all).  The JSON schema emitted by ToJson() is the
// contract documented in docs/OBSERVABILITY.md — change them together.
#include "obs/report.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "core/kiwi_map.h"
#include "obs/render.h"

namespace kiwi::obs {

void Append(std::string& out, const char* fmt, ...) {
  char buffer[320];
  va_list args;
  va_start(args, fmt);
  const int written = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  // A longer rendering is truncated rather than read past the buffer.
  const int kept = std::min<int>(written, sizeof(buffer) - 1);
  if (kept > 0) out.append(buffer, static_cast<std::size_t>(kept));
}

void AppendCounterObject(std::string& out, const OpCounters& counters) {
  out += '{';
  counters.ForEachRendered([&out](const char* name, std::uint64_t value) {
    Append(out, "\"%s\":%llu,", name, (unsigned long long)value);
  });
  out.back() = '}';  // replaces the last field's trailing comma
}

std::string DebugReport::ToText() const {
  std::string out;
  Append(out, "KiWi DebugReport (stats %s)\n",
         stats_enabled ? "on" : "off — counters/latency read zero");
  // Counters, gauges and census scalars print as name=value straight from
  // their canonical field lists, wrapped to stay within 80 columns.
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
  counters.ForEachRendered(field);
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
  out += " census:\n";
#define KIWI_OBS_TEXT_CENSUS(name) field(#name, census.name);
  KIWI_OBS_CENSUS_FIELDS(KIWI_OBS_TEXT_CENSUS)
#undef KIWI_OBS_TEXT_CENSUS
  end_lines();
  Append(out, "  avg_fill=%.3f batched_ratio=%.3f\n", census.avg_fill,
         census.batched_ratio);
  return out;
}

std::string DebugReport::ToJson() const {
  // The tag is the schema version: bump it whenever the schema breaks.
  std::string out = "{\"kiwi_debug_report\":2,";
  AppendJsonFields(out);
  out += '}';
  return out;
}

void DebugReport::AppendJsonFields(std::string& out) const {
  Append(out, "\"stats_enabled\":%s,\"counters\":",
         stats_enabled ? "true" : "false");
  AppendCounterObject(out, counters);
  out += ",\"latency_ns\":{";
  for (std::size_t i = 0; i < kLatencyCount; ++i) {
    const LatencySummary& s = latency[i];
    Append(out,
           "\"%s\":{\"count\":%llu,\"p50\":%llu,\"p99\":%llu,\"p999\":%llu,"
           "\"max\":%llu,\"mean\":%.17g},",
           LatencyName(static_cast<Latency>(i)), (unsigned long long)s.count,
           (unsigned long long)s.p50, (unsigned long long)s.p99,
           (unsigned long long)s.p999, (unsigned long long)s.max, s.mean_ns);
  }
  out.back() = '}';
  out += ",\"gauges\":{";
#define KIWI_OBS_EMIT_GAUGE(name) \
  Append(out, "\"%s\":%llu,", #name, (unsigned long long)gauges.name);
  KIWI_OBS_GAUGE_FIELDS(KIWI_OBS_EMIT_GAUGE)
#undef KIWI_OBS_EMIT_GAUGE
  out.back() = '}';
  out += ",\"census\":";
  out += census.ToJson();
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
    const obs::HistogramSnapshot snap =
        obs_.Hist(static_cast<obs::Latency>(i)).Snapshot();
    report.latency[i] = {snap.count, snap.P50(), snap.P99(), snap.P999(),
                         snap.max, snap.Mean()};
  }
#endif
  // The census and gauges are computed from the live structure regardless
  // of the stats gate.  The chunk list is walked once, by Census(), which
  // also sums the chunk slabs memory_bytes needs; the PSA walks run up to
  // each slot allocator's high-water mark, past every slot ever claimed
  // (exited threads' leaked entries too).
  report.census = Census();
  const auto pinned = [](const auto& psa, std::size_t high_water) {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < high_water; ++i) {
      n += psa.Slot(i).Load().ver != kNoVersion;
    }
    return n;
  };
  report.gauges.psa_active = pinned(psa_, ThreadRegistry::HighWater());
  report.gauges.snapshot_pins =
      pinned(snapshot_pins_, snapshot_slots_.HighWater());
  report.gauges.ebr_pending = ebr_.PendingCount();
  report.gauges.ebr_pending_bytes = ebr_.PendingBytes();
  report.gauges.ebr_epoch = ebr_.GlobalEpoch();
  report.gauges.ebr_epoch_lag = ebr_.EpochLag();
  report.gauges.global_version = gv_.Load();
  report.gauges.memory_bytes = FixedFootprint() + report.census.slab_bytes;
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
