// Reporting helpers shared by the benches: CSV rows mirroring the paper's
// figure axes plus human-readable summaries.
//
// Every figure bench emits lines of the form
//   csv,<figure>,<series>,<x>,<y>,<unit>
// so plots can be regenerated with a one-line grep + any plotting tool.
// Observability rows (obsjson,...) are digested from the single source of
// truth — the map's obs::StatsRegistry via DebugReport() — never from
// harness-side shadow counters, so bench reports and DebugReport can never
// disagree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace kiwi::api {
class IOrderedMap;
}

namespace kiwi::harness {

/// Emit one CSV data point to stdout.
void EmitCsv(const std::string& figure, const std::string& series,
             double x, double y, const std::string& unit);

/// Emit a human-readable line (prefixed for easy filtering).
void Note(const std::string& text);

/// Pretty-print a throughput in M ops or keys per second.
std::string FormatMps(double per_sec);

/// Pretty-print a byte count (MB with two decimals).
std::string FormatMb(std::size_t bytes);

/// Parse "a,b,c" into integers (bench CLI helper).
bool ParseUintList(const std::string& text, std::vector<std::uint64_t>* out);

/// Emit KiWi's DebugReport as the `obsjson,<figure>,<series>,<json>`
/// protocol row (schema in docs/OBSERVABILITY.md, consumed by
/// scripts/render_results.py and scripts/bench_smoke.py).  This is the only
/// path by which harness/bench reporting reads observability state.
/// Returns true if a row was emitted (i.e. `map` is KiWi).
bool EmitObsJson(const std::string& figure, const std::string& series,
                 api::IOrderedMap& map);

/// Start the map's continuous-telemetry pump if KIWI_METRICS is set and
/// `map` is a KiWi instance (see docs/OBSERVABILITY.md).  Returns true iff
/// a pump started; the map's destructor stops it.  Benches call this right
/// after constructing a map so `KIWI_METRICS=1s kiwi_bench ...` just works.
bool StartEnvMetricsPump(api::IOrderedMap& map);

}  // namespace kiwi::harness
