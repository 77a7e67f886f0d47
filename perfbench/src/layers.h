// Layer attribution from outside the map: replays of a Get's and a Scan's
// phases through the KiWiTestPeer friend hook (each phase recorded as a
// child span of a sampled call), standalone probes of the slab pool and the
// byte layout, and counter / histogram / census / pool deltas taken at the
// boundaries of the measured window.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/kiwi_map.h"
#include "obs/census.h"
#include "obs/histogram.h"
#include "obs/report.h"

namespace perfbench {

/// Parent and trace ids the replay's child spans attach to.
struct SpanParent {
  SpanLog* log = nullptr;
  std::uint32_t parent = 0;
  std::uint32_t trace = 0;
};

/// Replays a Get of `key` phase by phase (EBR guard, index lookup, list
/// walk, pending-put help, in-chunk search), one child span per phase.
/// Returns the value FindLatest saw, so the call cannot be optimised away.
template <typename Layout>
bool ReplayGet(kiwi::core::KiWiMapT<Layout>& map,
               typename Layout::KeyView key, const SpanParent& at);

/// Replays a bounded Scan of [from, to]: the PSA/GV read point, then help
/// and EmitChunkRange per chunk, one child span each.  Returns the number of
/// keys the replay emitted.
template <typename Layout>
std::size_t ReplayScan(kiwi::core::KiWiMapT<Layout>& map,
                       typename Layout::KeyView from,
                       typename Layout::KeyView to, const SpanParent& at);

/// The map's own counters, latency histograms and pool statistics at one
/// boundary of the measured window.
struct MapSnapshot {
  bool stats = false;
  kiwi::obs::OpCounters counters;
  std::array<kiwi::obs::HistogramSnapshot, kiwi::obs::kLatencyCount> hists{};
  kiwi::reclaim::SlabPool::Stats pool;
};

template <typename Layout>
MapSnapshot TakeSnapshot(kiwi::core::KiWiMapT<Layout>& map);

/// Everything the per-layer metrics are computed from, accumulated over one
/// or more measured windows (ingest measures one window per map).
struct LayerInputs {
  bool stats = true;
  kiwi::obs::OpCounters delta;
  std::array<kiwi::obs::HistogramSnapshot, kiwi::obs::kLatencyCount> hists{};
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  // Census at the end of each window, summed.
  std::uint64_t census_windows = 0;
  std::uint64_t chunks = 0;
  std::uint64_t allocated_cells = 0;
  std::uint64_t batched_cells = 0;
  std::uint64_t capacity_cells = 0;
  std::uint64_t arena_used = 0;
  std::uint64_t arena_capacity = 0;
  // Maxima sampled at slice boundaries.
  std::uint64_t pending_bytes_max = 0;
  std::uint64_t epoch_lag_max = 0;
  // Client-side totals over the measured windows.
  std::uint64_t keys_written = 0;
  std::uint64_t write_ns = 0;
  std::uint64_t scan_calls = 0;
  std::uint64_t scan_keys = 0;
  // Scans replayed by the traced run, and the keys they emitted.
  std::uint64_t replayed_scans = 0;
  std::uint64_t replayed_scan_keys = 0;
  // Traced vs untraced slices: client calls per second of wall time.
  std::vector<double> traced_rate;
  std::vector<double> untraced_rate;

  void AddWindow(const MapSnapshot& begin, const MapSnapshot& end);
  void AddCensus(const kiwi::obs::ChunkCensus& census,
                 std::uint32_t chunk_capacity);
  template <typename Layout>
  void SampleGauges(const kiwi::core::KiWiMapT<Layout>& map) {
    pending_bytes_max =
        std::max<std::uint64_t>(pending_bytes_max,
                                map.Reclaimer().PendingBytes());
    epoch_lag_max =
        std::max<std::uint64_t>(epoch_lag_max, map.Reclaimer().EpochLag());
  }
};

/// Standalone probes, independent of any workload map.
struct Probes {
  double pool_alloc_ns = 0;
  double compare_prefix_ns = 0;
  double compare_tie_ns = 0;
  int sink = 0;  // comparison results, kept so the loops are not elided
};
Probes RunProbes(std::uint64_t seed);

/// The per-layer metrics, in print order.  `result` supplies the traced
/// run's latency tails and sample counts.
std::vector<std::pair<std::string, double>> LayerMetrics(
    const LayerInputs& in, const std::vector<Span>& spans,
    const Probes& probes, const Result& result);

}  // namespace perfbench
