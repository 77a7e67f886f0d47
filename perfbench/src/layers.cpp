#include "layers.h"

#include <cmath>
#include <cstring>
#include <functional>

#include "common/thread_registry.h"
#include "reclaim/pool.h"

namespace kiwi::core {

// Friend of KiWiMapT (declared in core/kiwi_map.h).  The benchmark's own
// definition: it times the map's internal phases by calling them one by one,
// exactly as Get and ScanImpl call them.
class KiWiTestPeer {
 public:
  template <typename Layout>
  static bool ReplayGet(KiWiMapT<Layout>& map, typename Layout::KeyView key,
                        const perfbench::SpanParent& at);

  template <typename Layout>
  static std::size_t ReplayScan(KiWiMapT<Layout>& map,
                                typename Layout::KeyView from,
                                typename Layout::KeyView to,
                                const perfbench::SpanParent& at);
};

namespace {

void Child(const perfbench::SpanParent& at, const char* name,
           std::uint64_t start, std::uint64_t end) {
  at.log->Add(perfbench::Span{at.log->NextId(), at.parent, at.trace, name,
                              start, end});
}

/// The scan replay's timestamps, reused so that timing allocates nothing.
std::vector<std::uint64_t>& ScanMarks() {
  thread_local std::vector<std::uint64_t> marks;
  return marks;
}

}  // namespace

template <typename Layout>
bool KiWiTestPeer::ReplayGet(KiWiMapT<Layout>& map,
                             typename Layout::KeyView key,
                             const perfbench::SpanParent& at) {
  using Chunk = ChunkT<Layout>;
  const auto probe = Layout::MakeProbe(key);
  bool found = false;
  bool dead_region = false;
  // Timestamps only while timing; spans are recorded after the last one.
  std::uint64_t t[7];
  t[0] = perfbench::NowNs();
  {
    reclaim::EbrGuard guard(map.ebr_);
    t[1] = perfbench::NowNs();
    auto* chunk = static_cast<Chunk*>(map.index_.Lookup(key));
    t[2] = perfbench::NowNs();
    // LocateChunk's list walk from the index's answer.
    if (chunk == nullptr || chunk->retired.load(std::memory_order_acquire)) {
      chunk = map.sentinel_;
    }
    while (true) {
      Chunk* next = chunk->Next();
      if (next == nullptr ||
          Layout::CompareCell(next->a, next->min_key, probe) > 0) {
        break;
      }
      chunk = next;
      if (chunk->retired.load(std::memory_order_acquire)) {
        dead_region = true;
        break;
      }
    }
    if (dead_region) chunk = map.LocateChunk(key);  // restart, as Get would
    t[3] = perfbench::NowNs();
    chunk->HelpPendingPuts(map.gv_, key, key);
    t[4] = perfbench::NowNs();
    const typename Chunk::LatestResult latest =
        chunk->FindLatest(key, kMaxReadVersion);
    found = latest.found && !latest.is_tombstone;
    t[5] = perfbench::NowNs();
  }
  t[6] = perfbench::NowNs();
  Child(at, "replay.ebr_enter", t[0], t[1]);
  Child(at, "replay.index_lookup", t[1], t[2]);
  Child(at, dead_region ? "replay.list_walk_restart" : "replay.list_walk",
        t[2], t[3]);
  Child(at, "replay.help_pending", t[3], t[4]);
  Child(at, "replay.find_latest", t[4], t[5]);
  Child(at, "replay.ebr_exit", t[5], t[6]);
  return found;
}

template <typename Layout>
std::size_t KiWiTestPeer::ReplayScan(KiWiMapT<Layout>& map,
                                     typename Layout::KeyView from,
                                     typename Layout::KeyView to,
                                     const perfbench::SpanParent& at) {
  using Chunk = ChunkT<Layout>;
  using KeyView = typename Layout::KeyView;
  using ValueView = typename Layout::ValueView;
  const std::function<void(KeyView, ValueView)> yield = [](KeyView,
                                                           ValueView) {};
  // ScanImpl's read point: publish the range, take a version, install it.
  // Timestamps only while timing; spans are recorded after the last one.
  std::vector<std::uint64_t>& marks = ScanMarks();
  marks.clear();
  const std::uint64_t t0 = perfbench::NowNs();
  auto& entry = map.psa_.Slot(ThreadRegistry::CurrentSlot());
  const std::uint64_t seq =
      entry.PublishPending(Layout::PsaLow(from), Layout::PsaHigh(to));
  const Version read_point = entry.InstallOwn(seq, map.gv_.FetchIncrement());
  const std::uint64_t t1 = perfbench::NowNs();
  std::size_t emitted = 0;
  {
    reclaim::EbrGuard guard(map.ebr_);
    marks.push_back(perfbench::NowNs());
    Chunk* chunk = map.LocateChunk(from);
    marks.push_back(perfbench::NowNs());
    while (chunk != nullptr && Layout::KeyLeq(chunk->MinKey(), to)) {
      chunk->HelpPendingPuts(map.gv_, from, to);
      marks.push_back(perfbench::NowNs());
      map.EmitChunkRange(chunk, from, &to, read_point, yield, &emitted);
      marks.push_back(perfbench::NowNs());
      chunk = chunk->Next();
    }
  }
  const std::uint64_t t2 = perfbench::NowNs();
  entry.Clear(seq);
  const std::uint64_t t3 = perfbench::NowNs();
  Child(at, "replay.read_point", t0, t1);
  Child(at, "replay.scan_locate", marks[0], marks[1]);
  for (std::size_t i = 2; i + 1 < marks.size(); i += 2) {
    Child(at, "replay.scan_help", marks[i - 1], marks[i]);
    Child(at, "replay.emit_chunk", marks[i], marks[i + 1]);
  }
  Child(at, "replay.psa_clear", t2, t3);
  return emitted;
}

}  // namespace kiwi::core

namespace perfbench {

using kiwi::core::ByteLayout;
using kiwi::core::Int64Layout;
using kiwi::core::KiWiMapT;
using kiwi::core::KiWiTestPeer;
using kiwi::obs::Latency;

template <typename Layout>
bool ReplayGet(KiWiMapT<Layout>& map, typename Layout::KeyView key,
               const SpanParent& at) {
  return KiWiTestPeer::ReplayGet(map, key, at);
}

template <typename Layout>
std::size_t ReplayScan(KiWiMapT<Layout>& map, typename Layout::KeyView from,
                       typename Layout::KeyView to, const SpanParent& at) {
  return KiWiTestPeer::ReplayScan(map, from, to, at);
}

template <typename Layout>
MapSnapshot TakeSnapshot(KiWiMapT<Layout>& map) {
  MapSnapshot snap;
#if KIWI_OBS_ENABLED
  snap.stats = true;
  snap.counters = map.Observability().Aggregate();
  for (std::size_t i = 0; i < kiwi::obs::kLatencyCount; ++i) {
    snap.hists[i] =
        map.Observability().Hist(static_cast<Latency>(i)).Snapshot();
  }
#endif
  snap.pool = map.Pool().GetStats();
  return snap;
}

template bool ReplayGet<Int64Layout>(KiWiMapT<Int64Layout>&, kiwi::Key,
                                     const SpanParent&);
template bool ReplayGet<ByteLayout>(KiWiMapT<ByteLayout>&, std::string_view,
                                    const SpanParent&);
template std::size_t ReplayScan<Int64Layout>(KiWiMapT<Int64Layout>&, kiwi::Key,
                                             kiwi::Key, const SpanParent&);
template std::size_t ReplayScan<ByteLayout>(KiWiMapT<ByteLayout>&,
                                            std::string_view, std::string_view,
                                            const SpanParent&);
template MapSnapshot TakeSnapshot<Int64Layout>(KiWiMapT<Int64Layout>&);
template MapSnapshot TakeSnapshot<ByteLayout>(KiWiMapT<ByteLayout>&);

void LayerInputs::AddWindow(const MapSnapshot& begin, const MapSnapshot& end) {
  stats = stats && begin.stats && end.stats;
#define PERFBENCH_DELTA(name) \
  delta.name += end.counters.name - begin.counters.name;
  KIWI_OBS_COUNTER_FIELDS(PERFBENCH_DELTA)
#undef PERFBENCH_DELTA
  for (std::size_t i = 0; i < hists.size(); ++i) {
    auto& h = hists[i];
    const auto& b = begin.hists[i];
    const auto& e = end.hists[i];
    h.count += e.count - b.count;
    h.sum += e.sum - b.sum;
    h.max = std::max(h.max, e.max);
    for (std::size_t k = 0; k < h.buckets.size(); ++k) {
      h.buckets[k] += e.buckets[k] - b.buckets[k];
    }
  }
  pool_hits += end.pool.hits - begin.pool.hits;
  pool_misses += end.pool.misses - begin.pool.misses;
}

void LayerInputs::AddCensus(const kiwi::obs::ChunkCensus& census,
                            std::uint32_t chunk_capacity) {
  census_windows++;
  chunks += census.chunks;
  allocated_cells += census.allocated_cells;
  batched_cells += census.batched_cells;
  capacity_cells += census.chunks * chunk_capacity;
  arena_used += census.arena_used_bytes;
  arena_capacity += census.arena_capacity_bytes;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median duration of the spans named `name`, less one clock read.
double MedianSpanNs(const std::vector<Span>& spans, const char* name,
                    double clock_ns) {
  std::vector<double> ns;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  if (ns.empty()) return 0;
  return std::max(0.0, Quantile(ns, 0.5) - clock_ns);
}

struct SpanSum {
  double ns = 0;
  std::size_t count = 0;
};

SpanSum SumSpans(const std::vector<Span>& spans, const char* name,
                 double clock_ns) {
  SpanSum sum;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      sum.ns += std::max(
          0.0, static_cast<double>(s.end_ns - s.start_ns) - clock_ns);
      sum.count++;
    }
  }
  return sum;
}

}  // namespace

Probes RunProbes(std::uint64_t seed) {
  Probes probes;
  // One chunk slab of the int64 map, allocated and freed on a standalone
  // pool: after the first miss every round trip is a hit in this thread's
  // cache.
  {
    const std::size_t bytes = kiwi::core::Chunk::SlabBytes(
        kiwi::core::KiWiConfig{}.chunk_capacity);
    std::vector<double> per_pair;
    kiwi::reclaim::SlabPool pool;
    for (int rep = 0; rep < 9; ++rep) {
      constexpr int kPairs = 4096;
      const std::uint64_t t0 = NowNs();
      for (int i = 0; i < kPairs; ++i) {
        void* slab = pool.Allocate(bytes);
        static_cast<volatile char*>(slab)[0] = 1;
        pool.Deallocate(slab, bytes);
      }
      per_pair.push_back(static_cast<double>(NowNs() - t0) / kPairs);
    }
    probes.pool_alloc_ns = Quantile(per_pair, 0.5);
  }
  // Byte-layout comparisons on ingest-style keys (8-byte big-endian series
  // id, then 8-byte big-endian timestamp): pairs from different series
  // resolve on the prefix; pairs from one series tie on it and fall
  // through to the memcmp of the arena bytes.
  {
    constexpr std::size_t kKeys = 4096;
    std::string arena(kKeys * 16, '\0');
    std::vector<ByteLayout::CellKey> cells(kKeys);
    std::vector<std::string> keys(kKeys);
    Rng rng(StreamSeed(seed, 90));
    for (std::size_t i = 0; i < kKeys; ++i) {
      std::string key(16, '\0');
      const std::uint64_t series = __builtin_bswap64(i / 2);
      const std::uint64_t ts = __builtin_bswap64(rng.Next() >> 1);
      std::memcpy(key.data(), &series, 8);
      std::memcpy(key.data() + 8, &ts, 8);
      std::memcpy(arena.data() + i * 16, key.data(), 16);
      cells[i] = ByteLayout::CellKey{ByteLayout::MakePrefix(key),
                                     static_cast<std::uint32_t>(i * 16), 16};
      keys[i] = std::move(key);
    }
    const auto time_pairs = [&](std::size_t partner_xor) {
      std::vector<double> per_compare;
      int sink = 0;
      for (int rep = 0; rep < 9; ++rep) {
        const std::uint64_t t0 = NowNs();
        for (std::size_t i = 0; i < kKeys; ++i) {
          const auto probe = ByteLayout::MakeProbe(keys[i ^ partner_xor]);
          sink += ByteLayout::CompareCell(arena.data(), cells[i], probe);
        }
        per_compare.push_back(static_cast<double>(NowNs() - t0) / kKeys);
      }
      probes.sink += sink;
      return Quantile(per_compare, 0.5);
    };
    probes.compare_tie_ns = time_pairs(1);     // same series, other ts
    probes.compare_prefix_ns = time_pairs(2);  // neighbouring series
  }
  return probes;
}

std::vector<std::pair<std::string, double>> LayerMetrics(
    const LayerInputs& in, const std::vector<Span>& spans,
    const Probes& probes, const Result& result) {
  const double clock = ClockCostNs();
  const auto& d = in.delta;
  const double kkeys = static_cast<double>(in.keys_written) / 1000.0;
  const double kops =
      static_cast<double>(d.gets + d.puts + d.removes + d.scans +
                          d.batch_entries) /
      1000.0;
  // Counter-based metrics need KIWI_STATS; without it they are unavailable.
  const auto counted = [&](double value) {
    return in.stats ? value : kUnavailable;
  };
  const auto stage_p50 = [&](Latency stage) {
    return counted(static_cast<double>(
        in.hists[static_cast<std::size_t>(stage)].P50()));
  };
  const double windows =
      static_cast<double>(std::max<std::uint64_t>(1, in.census_windows));
  const double rebalance_ns = static_cast<double>(
      in.hists[static_cast<std::size_t>(Latency::kRebalance)].sum);
  const double pool_calls = static_cast<double>(in.pool_hits + in.pool_misses);

  const double lookup = MedianSpanNs(spans, "replay.index_lookup", clock);
  const double walk = MedianSpanNs(spans, "replay.list_walk", clock);
  const double help = MedianSpanNs(spans, "replay.help_pending", clock);
  const double find = MedianSpanNs(spans, "replay.find_latest", clock);
  const double guard = MedianSpanNs(spans, "replay.ebr_enter", clock) +
                       MedianSpanNs(spans, "replay.ebr_exit", clock);
  const double get = MedianSpanNs(spans, "get", clock);
  const SpanSum emit = SumSpans(spans, "replay.emit_chunk", clock);
  const double read_point = MedianSpanNs(spans, "replay.read_point", clock) +
                            MedianSpanNs(spans, "replay.psa_clear", clock);
  const double untraced = Quantile(in.untraced_rate, 0.5);
  const double traced = Quantile(in.traced_rate, 0.5);

  return {
      {"index.lookup_ns", lookup},
      {"index.walk_ns", walk},
      {"index.chunks", static_cast<double>(in.chunks) / windows},
      {"index.locate_restarts_per_kop",
       counted(Ratio(static_cast<double>(d.locate_restarts), kops))},
      {"chunk.find_latest_ns", find},
      {"chunk.help_pending_ns", help},
      {"chunk.batched_ratio",
       Ratio(static_cast<double>(in.batched_cells),
             static_cast<double>(in.allocated_cells))},
      {"chunk.fill", Ratio(static_cast<double>(in.allocated_cells),
                           static_cast<double>(in.capacity_cells))},
      {"scan.emit_ns_per_key",
       Ratio(emit.ns, static_cast<double>(in.replayed_scan_keys))},
      {"scan.chunks_per_call", Ratio(static_cast<double>(emit.count),
                                     static_cast<double>(in.replayed_scans))},
      {"scan.keys_per_call", Ratio(static_cast<double>(in.scan_keys),
                                   static_cast<double>(in.scan_calls))},
      {"version.read_point_ns", read_point},
      {"version.scans_helped_per_kscan",
       counted(Ratio(static_cast<double>(d.scans_helped),
                     static_cast<double>(d.scans) / 1000.0))},
      {"put.restarts_per_kput",
       counted(Ratio(static_cast<double>(d.put_restarts), kkeys))},
      {"put.helped_per_kput",
       counted(Ratio(static_cast<double>(d.puts_helped), kkeys))},
      {"put.ppa_publish_fails_per_kput",
       counted(Ratio(static_cast<double>(d.ppa_publish_fails), kkeys))},
      {"put.link_retries_per_kput",
       counted(Ratio(static_cast<double>(d.put_link_retries), kkeys))},
      {"put.cell_overflows_per_kput",
       counted(Ratio(static_cast<double>(d.cell_alloc_overflows), kkeys))},
      {"rebalance.per_kkey",
       counted(Ratio(static_cast<double>(d.rebalances), kkeys))},
      {"rebalance.win_frac",
       counted(Ratio(static_cast<double>(d.rebalance_wins),
                     static_cast<double>(d.rebalances)))},
      {"rebalance.busy_frac",
       counted(Ratio(rebalance_ns, static_cast<double>(in.write_ns)))},
      {"rebalance.chunks_created_per_kkey",
       counted(Ratio(static_cast<double>(d.chunks_created), kkeys))},
      {"rebalance.engage_ns_p50", stage_p50(Latency::kRebalanceEngage)},
      {"rebalance.freeze_ns_p50", stage_p50(Latency::kRebalanceFreeze)},
      {"rebalance.build_ns_p50", stage_p50(Latency::kRebalanceBuild)},
      {"rebalance.replace_ns_p50", stage_p50(Latency::kRebalanceReplace)},
      {"rebalance.index_ns_p50", stage_p50(Latency::kRebalanceIndex)},
      {"batch.bulk_frac",
       counted(Ratio(static_cast<double>(d.batch_bulk_entries),
                     static_cast<double>(d.batch_entries)))},
      {"ebr.guard_ns", guard},
      {"ebr.pending_bytes_max", static_cast<double>(in.pending_bytes_max)},
      {"ebr.epoch_lag_max", static_cast<double>(in.epoch_lag_max)},
      {"pool.hit_frac", Ratio(static_cast<double>(in.pool_hits), pool_calls)},
      {"pool.alloc_ns", probes.pool_alloc_ns},
      {"layout.compare_prefix_ns", probes.compare_prefix_ns},
      {"layout.compare_tie_ns", probes.compare_tie_ns},
      {"layout.arena_fill", Ratio(static_cast<double>(in.arena_used),
                                  static_cast<double>(in.arena_capacity))},
      {"api.read_p99_us", result.read_p99_us},
      {"api.write_p99_us", result.write_p99_us},
      {"api.read_samples", static_cast<double>(result.read_samples)},
      {"api.write_samples", static_cast<double>(result.write_samples)},
      {"api.get_phase_sum_frac",
       Ratio(lookup + walk + help + find + guard, get)},
      {"api.trace_overhead_frac", untraced > 0 ? 1.0 - traced / untraced : 0},
  };
}

}  // namespace perfbench
