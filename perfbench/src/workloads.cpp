// The two workloads.  Each is closed loop: a client issues its next call
// only when the previous one returned.  Every call's result is checked
// against a shadow the client keeps, and the checks run outside the timed
// calls wherever they would cost more than a comparison.
//
//   analytics  int64 map, 2 clients on a 1,000,000-key load over
//              [1, 2,000,000]: one scanner runs atomic 32,768-key-range
//              Scans, one writer 50% Put / 50% Remove.
//   ingest     byte map, 1 client: a 16,384-event time-series window fed
//              by 4,096-event PutBatch steps, expired by Removes, and read
//              by 16 short per-series Scans per step.
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "api/byte_map.h"
#include "bench.h"
#include "core/kiwi_map.h"
#include "layers.h"

namespace perfbench {
namespace {

using kiwi::Key;
using kiwi::Value;
using kiwi::api::KiWiByteMap;
using kiwi::core::KiWiMap;

/// A run is cut into rounds of about kRoundSeconds.  Each round builds its
/// map afresh and runs on CPUs rotated by one, so a run samples several
/// memory placements and CPUs instead of staying with one draw of each for
/// its whole length; each round warms up before it measures.
constexpr double kRoundSeconds = 5.0;
constexpr double kWarmupSeconds = 0.5;
constexpr double kSliceSeconds = 0.5;
/// Traced runs record a span, and replay its layers, for one call in this
/// many: Puts and Removes, the 16K-key analytics Scans, the 64-key ingest
/// Scans.
constexpr std::uint32_t kTraceEvery = 512;
constexpr std::uint32_t kTraceLongScanEvery = 32;
constexpr std::uint32_t kTraceShortScanEvery = 4;

enum Kind { kRead = 0, kWrite = 1 };

// ---- int64 load (analytics) ------------------------------------------------

constexpr Key kKeySpace = 2'000'000;
constexpr std::size_t kLoadKeys = 1'000'000;
/// The load is aged before measuring: each stretch of kAgeStretch loaded
/// keys (what the bulk loader packs into one half-full chunk) receives a
/// uniform 0..kAgeMaxUpdates random updates.  A fresh bulk load puts every
/// chunk at the same point of its fill-and-rebalance cycle, all keys in
/// sorted prefixes, and the chunks would stay in step for dozens of cycles;
/// the aging spreads them over the cycle from the start, as in a map that
/// has been running for a long time.
constexpr std::size_t kAgeStretch = 512;
constexpr std::uint64_t kAgeMaxUpdates = 320;

Value ValueOf(Key key) {
  std::uint64_t x = static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return static_cast<Value>(x >> 2);  // never the tombstone (INT64_MIN)
}

/// What the checker expects a key to map to; the self-test corrupts it.
Value ExpectedValueOf(Key key, bool sabotage) {
  return ValueOf(key) + (sabotage ? 1 : 0);
}

class Bits {
 public:
  explicit Bits(std::size_t n) : words_(n / 64 + 1, 0) {}
  bool Test(std::size_t i) const { return (words_[i / 64] >> (i % 64)) & 1; }
  void Set(std::size_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
  void Clear(std::size_t i) {
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  std::size_t Count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) {
      n += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return n;
  }

 private:
  std::vector<std::uint64_t> words_;
};

struct IntLoad {
  std::unique_ptr<KiWiMap> map;
  std::unique_ptr<Bits> present;
};

/// Generates the 1,000,000-key load, bulk-loads it and ages it.
IntLoad BuildIntLoad(std::uint64_t seed) {
  IntLoad load;
  load.present = std::make_unique<Bits>(kKeySpace + 1);
  Rng pick(StreamSeed(seed, 1));
  std::vector<KiWiMap::Entry> entries;
  entries.reserve(kLoadKeys);
  // Selection sampling: exactly kLoadKeys distinct keys, in ascending order.
  std::size_t need = kLoadKeys;
  for (Key key = 1; key <= kKeySpace && need > 0; ++key) {
    if (pick.Below(static_cast<std::uint64_t>(kKeySpace - key + 1)) < need) {
      entries.emplace_back(key, ValueOf(key));
      load.present->Set(static_cast<std::size_t>(key));
      --need;
    }
  }
  load.map =
      std::make_unique<KiWiMap>(std::span<const KiWiMap::Entry>(entries));
  Rng age(StreamSeed(seed, 2));
  for (std::size_t at = 0; at < entries.size(); at += kAgeStretch) {
    const Key lo = entries[at].first;
    const Key hi = at + kAgeStretch < entries.size()
                       ? entries[at + kAgeStretch].first
                       : kKeySpace + 1;
    const std::uint64_t updates = age.Below(kAgeMaxUpdates + 1);
    for (std::uint64_t u = 0; u < updates; ++u) {
      const Key key =
          lo + static_cast<Key>(age.Below(static_cast<std::uint64_t>(hi - lo)));
      if (age.Next() & 1) {
        load.map->Remove(key);
        load.present->Clear(static_cast<std::size_t>(key));
      } else {
        load.map->Put(key, ValueOf(key));
        load.present->Set(static_cast<std::size_t>(key));
      }
    }
  }
  return load;
}

std::size_t RoundsFor(double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds / kRoundSeconds)));
}

double SecondsSince(std::uint64_t t0) {
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

/// A round's window: warm-up from now, then `seconds` cut into slices.
Window MakeWindow(double seconds) {
  Window w;
  w.slices = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(seconds / kSliceSeconds)));
  w.slice_ns = static_cast<std::uint64_t>(seconds * 1e9) / w.slices;
  w.start_ns = NowNs() + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
  return w;
}

/// A window of no slices that ends where `w` begins: a loop driven by it
/// runs the warm-up and records nothing.
Window WarmUpOf(const Window& w) {
  Window warm = w;
  warm.slices = 0;
  return warm;
}

/// Traced runs record spans and replays in odd slices only, so even slices
/// give the untraced rate the trace overhead is measured against.
bool TracedSlice(const Options& o, std::size_t slice, const Window& w) {
  return o.trace && slice < w.slices && (slice & 1) == 1;
}

/// Per-slice calls per second of wall time, split by traced slices.
void AddSliceRates(const std::vector<const Tally*>& tallies, const Window& w,
                   LayerInputs* in) {
  for (std::size_t s = 0; s < w.slices; ++s) {
    std::uint64_t calls = 0;
    for (const Tally* t : tallies) {
      calls += t->slices[s].read_calls + t->slices[s].write_calls;
    }
    const double rate = static_cast<double>(calls) /
                        (static_cast<double>(w.slice_ns) * 1e-9);
    ((s & 1) ? in->traced_rate : in->untraced_rate).push_back(rate);
  }
}

/// Client totals over the window; `scans` says whether read calls are Scans.
void AddClientTotals(const std::vector<const Tally*>& tallies, bool scans,
                     LayerInputs* in) {
  for (const Tally* t : tallies) {
    for (const SliceTally& s : t->slices) {
      in->keys_written += s.write_keys;
      in->write_ns += s.write_ns;
      if (scans) {
        in->scan_calls += s.read_calls;
        in->scan_keys += s.read_keys;
      }
    }
  }
}

/// Attributes the time between clock reads to read or write calls.  A
/// clock read costs tens of ns, so not every call is timed: the time of a
/// run of untimed calls of one kind is charged to that kind as a block.
class CallClock {
 public:
  CallClock(const Window& w, Tally* tally) : w_(w), tally_(tally) {
    Reset();
  }

  /// Restarts the clock after work that must not be charged (replays).
  void Reset() {
    t_prev_ = NowNs();
    fresh_ = true;
    Locate(t_prev_);
  }

  /// Call before a call of `kind`; `timed` calls get their own latency.
  void Before(Kind kind, bool timed) {
    if ((timed || kind != open_) && !fresh_) {
      const std::uint64_t t = NowNs();
      Charge(open_, t - t_prev_);
      t_prev_ = t;
      Locate(t);
    }
    open_ = kind;
  }

  /// Call after the call returned, with the keys it read or wrote.
  void After(Kind kind, bool timed, std::uint64_t keys) {
    if (slice_ != nullptr) {
      if (kind == kRead) {
        slice_->read_keys += keys;
        slice_->read_calls += 1;
      } else {
        slice_->write_keys += keys;
        slice_->write_calls += 1;
      }
    }
    if (!timed) {
      fresh_ = false;
      return;
    }
    const std::uint64_t t = NowNs();
    const std::uint64_t ns = t - t_prev_;
    if (slice_ != nullptr) {
      (kind == kRead ? tally_->read_lat_ns : tally_->write_lat_ns)
          .push_back(LatencySample(ns));
    }
    Charge(kind, ns);
    last_start_ = t_prev_;
    t_prev_ = t;
    fresh_ = true;
    Locate(t);
  }

  /// Start and end of the last timed call.
  std::uint64_t LastStart() const { return last_start_; }
  std::uint64_t LastEnd() const { return t_prev_; }

  /// Index of the current slice; w.slices once the window is over, more
  /// during warm-up.
  std::size_t Slice() const { return slice_index_; }
  bool Done() const { return slice_index_ == w_.slices; }

 private:
  void Locate(std::uint64_t t) {
    slice_index_ = w_.SliceOf(t);
    slice_ = slice_index_ < w_.slices ? &tally_->slices[slice_index_] : nullptr;
  }
  void Charge(Kind kind, std::uint64_t ns) {
    if (slice_ == nullptr) return;
    (kind == kRead ? slice_->read_ns : slice_->write_ns) += ns;
  }

  const Window& w_;
  Tally* tally_;
  SliceTally* slice_ = nullptr;
  std::size_t slice_index_ = 0;
  std::uint64_t t_prev_ = 0;
  std::uint64_t last_start_ = 0;
  bool fresh_ = true;
  Kind open_ = kRead;
};

/// Records the span of the last timed call and returns its id.
std::uint32_t RecordCallSpan(SpanLog* log, const char* name,
                             const CallClock& clock, std::uint32_t round) {
  const std::uint32_t id = log->NextId();
  log->Add(Span{id, round, id, name, clock.LastStart(), clock.LastEnd()});
  return id;
}

/// Round spans: one per slice, the parent of the calls sampled in it.
class Rounds {
 public:
  Rounds(const Window& w, SpanLog* log) : w_(w), log_(log), ids_(w.slices) {
    for (auto& id : ids_) id = log_->NextId();
  }
  std::uint32_t Id(std::size_t slice) const { return ids_[slice]; }
  void Close() {
    for (std::size_t s = 0; s < w_.slices; ++s) {
      if ((s & 1) == 0) continue;
      const std::uint64_t start = w_.start_ns + s * w_.slice_ns;
      log_->Add(Span{ids_[s], 0, ids_[s], "round", start, start + w_.slice_ns});
    }
  }

 private:
  const Window& w_;
  SpanLog* log_;
  std::vector<std::uint32_t> ids_;
};

// ---- analytics -----------------------------------------------------------

constexpr Key kScanRange = 32'768;
constexpr std::uint32_t kWriteSampleEvery = 16;

void WriterLoop(KiWiMap& map, Bits& present, Rng& rng, Rng& replay_rng,
                const Options& o, const Window& w, Tally* tally, SpanLog* log,
                Rounds* rounds) {
  CallClock clock(w, tally);
  std::uint64_t ops = 0;
  while (!clock.Done()) {
    const Key key = 1 + static_cast<Key>(rng.Below(kKeySpace));
    const bool remove = rng.Next() & 1;
    ++ops;
    const bool trace =
        TracedSlice(o, clock.Slice(), w) && ops % kTraceEvery == 0;
    const bool timed = trace || ops % kWriteSampleEvery == 0;
    clock.Before(kWrite, timed);
    if (remove) {
      map.Remove(key);
      present.Clear(static_cast<std::size_t>(key));
    } else {
      map.Put(key, ValueOf(key));
      present.Set(static_cast<std::size_t>(key));
    }
    tally->attempted++;
    clock.After(kWrite, timed, 1);
    if (trace && clock.Slice() < w.slices) {
      const std::uint32_t round = rounds->Id(clock.Slice());
      RecordCallSpan(log, remove ? "remove" : "put", clock, round);
      // A sampled Get, then its phases replayed as its children.  Both use
      // fresh keys of the same distribution: the call just made left its own
      // key's path in cache.
      const Key probe = 1 + static_cast<Key>(replay_rng.Below(kKeySpace));
      const std::uint64_t g0 = NowNs();
      const std::optional<Value> got = map.Get(probe);
      const std::uint64_t g1 = NowNs();
      tally->attempted++;
      if (got.has_value() != present.Test(static_cast<std::size_t>(probe)) ||
          (got && *got != ExpectedValueOf(probe, o.sabotage))) {
        tally->failed++;
      }
      const std::uint32_t id = log->NextId();
      log->Add(Span{id, round, id, "get", g0, g1});
      const Key fresh = 1 + static_cast<Key>(replay_rng.Below(kKeySpace));
      ReplayGet<kiwi::core::Int64Layout>(map, fresh, SpanParent{log, id, id});
      clock.Reset();
    }
  }
}

void ScannerLoop(KiWiMap& map, Rng& rng, Rng& replay_rng, const Options& o,
                 const Window& w, Tally* tally, SpanLog* log, Rounds* rounds,
                 LayerInputs* layers) {
  CallClock clock(w, tally);
  std::uint64_t scans = 0;
  std::size_t last_slice = clock.Slice();
  while (!clock.Done()) {
    const Key from =
        1 + static_cast<Key>(rng.Below(kKeySpace - kScanRange + 1));
    const Key to = from + kScanRange - 1;
    Key prev = from - 1;
    bool bad = false;
    std::uint64_t keys = 0;
    clock.Before(kRead, true);
    map.Scan(from, to, [&](Key key, Value value) {
      bad |= key <= prev || key > to ||
             value != ExpectedValueOf(key, o.sabotage);
      prev = key;
      ++keys;
    });
    clock.After(kRead, true, keys);
    tally->attempted++;
    if (bad) tally->failed++;
    if (TracedSlice(o, clock.Slice(), w) &&
        ++scans % kTraceLongScanEvery == 0) {
      const std::uint32_t id =
          RecordCallSpan(log, "scan", clock, rounds->Id(clock.Slice()));
      const Key rfrom =
          1 + static_cast<Key>(replay_rng.Below(kKeySpace - kScanRange + 1));
      layers->replayed_scan_keys += ReplayScan<kiwi::core::Int64Layout>(
          map, rfrom, rfrom + kScanRange - 1, SpanParent{log, id, id});
      layers->replayed_scans++;
      clock.Reset();
    }
    if (o.trace && clock.Slice() != last_slice) {
      last_slice = clock.Slice();
      layers->SampleGauges(map);
    }
  }
}

/// One full scan of the quiescent map compared with the writer's shadow.
bool FullScanMatches(KiWiMap& map, const Bits& present, bool sabotage) {
  std::size_t seen = 0;
  bool ok = true;
  map.Scan(1, kKeySpace, [&](Key key, Value value) {
    ok = ok && present.Test(static_cast<std::size_t>(key)) &&
         value == ExpectedValueOf(key, sabotage);
    ++seen;
  });
  return ok && seen == present.Count();
}

// ---- ingest --------------------------------------------------------------

constexpr std::size_t kSeries = 1024;
constexpr std::size_t kWindowEvents = 16'384;
constexpr std::size_t kStepEvents = 4'096;
constexpr std::size_t kStepScans = 16;
constexpr std::size_t kScanEvents = 64;
constexpr std::size_t kMaxValueBytes = 120;
/// Each map lives for a fixed number of steps: the first kEpochWarmSteps
/// are warm-up, the rest are measured.  A fresh map per epoch bounds the
/// memory that emptied chunks hold (see README: they are never reclaimed)
/// and fixes the run length bytes_per_key is read at.
constexpr std::size_t kEpochWarmSteps = 16;
constexpr std::size_t kEpochSteps = 64;

struct Event {
  std::uint64_t series;
  std::uint64_t ts;
};

void PutBigEndian(char* out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out[i] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
}

void AppendKey(std::string& out, std::uint64_t series, std::uint64_t ts) {
  char key[16];
  PutBigEndian(key, series);
  PutBigEndian(key + 8, ts);
  out.append(key, sizeof(key));
}

/// Event payload: 0..kMaxValueBytes bytes, a pure function of the event.
void AppendValue(std::string& out, const Event& e) {
  std::uint64_t h = e.series * 0x9e3779b97f4a7c15ULL ^ e.ts;
  h = Rng::SplitMix(h);
  const std::size_t len = h % (kMaxValueBytes + 1);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>((h >> (8 * (i % 8))) ^ i));
  }
}

std::string KeyOf(const Event& e) {
  std::string key;
  AppendKey(key, e.series, e.ts);
  return key;
}

std::string ValueOfEvent(const Event& e) {
  std::string value;
  AppendValue(value, e);
  return value;
}

/// The event stream and the shadow of the window the map must hold.
class IngestShadow {
 public:
  explicit IngestShadow(std::uint64_t seed)
      : rng_(StreamSeed(seed, 10)), zipf_(kSeries), ids_(kSeries),
        by_series_(kSeries) {
    // Series ranks map to ids through a seeded permutation, so hot series
    // are spread over the key space.
    for (std::size_t i = 0; i < kSeries; ++i) ids_[i] = i;
    for (std::size_t i = kSeries - 1; i > 0; --i) {
      std::swap(ids_[i], ids_[rng_.Below(i + 1)]);
    }
  }

  Event Append() {
    const Event e{ids_[zipf_.Draw(rng_)], next_ts_++};
    window_.push_back(e);
    by_series_[e.series].push_back(e.ts);
    return e;
  }

  Event ExpireOldest() {
    const Event e = window_.front();
    window_.pop_front();
    by_series_[e.series].pop_front();
    return e;
  }

  std::uint64_t DrawSeries(Rng& rng) const { return ids_[zipf_.Draw(rng)]; }
  const std::deque<std::uint64_t>& Series(std::uint64_t id) const {
    return by_series_[id];
  }
  const std::deque<Event>& Window() const { return window_; }

 private:
  Rng rng_;
  Zipf zipf_;
  std::vector<std::uint64_t> ids_;
  std::vector<std::deque<std::uint64_t>> by_series_;
  std::deque<Event> window_;
  std::uint64_t next_ts_ = 1;
};

/// One short per-series scan: its range and the events it must return.
struct ExpectedScan {
  std::string from;
  std::string to;
  std::size_t count = 0;
  std::string keys;    // count keys of 16 bytes
  std::string values;  // concatenated
  std::vector<std::size_t> value_end;

  void Build(const IngestShadow& shadow, std::uint64_t series, bool sabotage) {
    const std::deque<std::uint64_t>& ts = shadow.Series(series);
    const std::size_t first =
        ts.size() > kScanEvents ? ts.size() - kScanEvents : 0;
    from.clear();
    to.clear();
    keys.clear();
    values.clear();
    value_end.clear();
    AppendKey(from, series, ts.empty() ? 0 : ts[first]);
    AppendKey(to, series, ts.empty() ? ~std::uint64_t{0} : ts.back());
    count = ts.size() - first;
    for (std::size_t i = first; i < ts.size(); ++i) {
      AppendKey(keys, series, ts[i]);
      AppendValue(values, Event{series, ts[i]});
      if (sabotage) values.push_back('!');
      value_end.push_back(values.size());
    }
  }

  std::string_view Key(std::size_t i) const {
    return std::string_view(keys).substr(i * 16, 16);
  }
  std::string_view Value(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : value_end[i - 1];
    return std::string_view(values).substr(begin, value_end[i] - begin);
  }
};

std::unique_ptr<KiWiByteMap> LoadWindow(const IngestShadow& shadow) {
  std::vector<KiWiByteMap::Entry> entries;
  entries.reserve(shadow.Window().size());
  for (const Event& e : shadow.Window()) {
    entries.emplace_back(KeyOf(e), ValueOfEvent(e));
  }
  std::sort(entries.begin(), entries.end());
  return std::make_unique<KiWiByteMap>(
      std::span<const KiWiByteMap::Entry>(entries));
}

/// The ingest client: the event stream with its shadow, and the buffers a
/// step reuses.
class IngestClient {
 public:
  explicit IngestClient(const Options& o)
      : o_(o), shadow_(o.seed), scan_rng_(StreamSeed(o.seed, 11)),
        replay_rng_(StreamSeed(o.seed, 12)) {}

  const IngestShadow& Shadow() const { return shadow_; }

  /// Appends the events the first map is loaded with.
  void FillWindow() {
    for (std::size_t i = 0; i < kWindowEvents; ++i) shadow_.Append();
  }

  /// Runs one step: the write call (PutBatch of the new events, then a
  /// Remove per expired event) and kStepScans checked scans.  Tallies into
  /// `slice` when it is non-null; records spans and replays into `log` when
  /// that is non-null.
  void Step(KiWiByteMap& map, Tally* tally, SliceTally* slice, SpanLog* log,
            std::uint32_t round, LayerInputs* layers) {
    batch_.clear();
    expired_.clear();
    for (std::size_t i = 0; i < kStepEvents; ++i) {
      const Event e = shadow_.Append();
      batch_.emplace_back(KeyOf(e), ValueOfEvent(e));
    }
    for (std::size_t i = 0; i < kStepEvents; ++i) {
      expired_.push_back(KeyOf(shadow_.ExpireOldest()));
    }
    const std::uint64_t w0 = NowNs();
    map.PutBatch(std::span<const KiWiByteMap::Entry>(batch_));
    for (const std::string& key : expired_) map.Remove(key);
    const std::uint64_t w1 = NowNs();
    tally->attempted += batch_.size() + expired_.size();
    if (slice != nullptr) {
      slice->write_ns += w1 - w0;
      slice->write_keys += batch_.size() + expired_.size();
      slice->write_calls += 1;
      tally->write_lat_ns.push_back(LatencySample(w1 - w0));
    }
    if (log != nullptr) {
      log->Add(Span{log->NextId(), round, 0, "ingest_write", w0, w1});
    }
    for (std::size_t s = 0; s < kStepScans; ++s) {
      expect_.Build(shadow_, shadow_.DrawSeries(scan_rng_), o_.sabotage);
      std::size_t n = 0;
      bool bad = false;
      const std::uint64_t r0 = NowNs();
      map.Scan(expect_.from, expect_.to,
               [&](std::string_view key, std::string_view value) {
                 bad |= n >= expect_.count || key != expect_.Key(n) ||
                        value != expect_.Value(n);
                 ++n;
               });
      const std::uint64_t r1 = NowNs();
      tally->attempted++;
      if (bad || n != expect_.count) tally->failed++;
      if (slice != nullptr) {
        slice->read_ns += r1 - r0;
        slice->read_keys += n;
        slice->read_calls += 1;
        tally->read_lat_ns.push_back(LatencySample(r1 - r0));
      }
      if (log == nullptr || s % kTraceShortScanEvery != 0) continue;
      const std::uint32_t id = log->NextId();
      log->Add(Span{id, round, id, "scan", r0, r1});
      // Replays use a fresh range and key: the scan just made left its own
      // chunks in cache.
      expect_.Build(shadow_, shadow_.DrawSeries(replay_rng_), false);
      layers->replayed_scan_keys += ReplayScan<kiwi::core::ByteLayout>(
          map, expect_.from, expect_.to, SpanParent{log, id, id});
      layers->replayed_scans++;
      const std::deque<Event>& window = shadow_.Window();
      ReplayGet<kiwi::core::ByteLayout>(
          map, KeyOf(window[replay_rng_.Below(window.size())]),
          SpanParent{log, id, id});
    }
  }

 private:
  const Options& o_;
  IngestShadow shadow_;
  Rng scan_rng_;
  Rng replay_rng_;
  std::vector<KiWiByteMap::Entry> batch_;
  std::vector<std::string> expired_;
  ExpectedScan expect_;
};

}  // namespace

Result RunAnalytics(const Options& o) {
  Result result;
  Rng scan_rng(StreamSeed(o.seed, 7));
  Rng scan_replay_rng(StreamSeed(o.seed, 8));
  Rng write_rng(StreamSeed(o.seed, 5));
  Rng write_replay_rng(StreamSeed(o.seed, 6));
  Tally scan_tally;
  Tally write_tally;
  SpanLog scan_log(1);
  SpanLog write_log(2);
  LayerInputs layers;
  std::vector<double> setup_s;
  std::vector<double> bytes_per_key;
  const std::size_t rounds = RoundsFor(o.seconds);
  for (std::size_t r = 0; r < rounds; ++r) {
    PinToCpu(r);
    const std::uint64_t t0 = NowNs();
    IntLoad load = BuildIntLoad(o.seed);
    setup_s.push_back(SecondsSince(t0));
    KiWiMap& map = *load.map;
    const Window w = MakeWindow(o.seconds / static_cast<double>(rounds));
    Tally scans(w.slices);
    Tally writes(w.slices);
    Rounds spans(w, &scan_log);
    std::thread writer([&] {
      PinToCpu(r + 1);
      WriterLoop(map, *load.present, write_rng, write_replay_rng, o,
                 WarmUpOf(w), &writes, &write_log, &spans);
      WriterLoop(map, *load.present, write_rng, write_replay_rng, o, w,
                 &writes, &write_log, &spans);
    });
    ScannerLoop(map, scan_rng, scan_replay_rng, o, WarmUpOf(w), &scans,
                &scan_log, &spans, &layers);
    const MapSnapshot begin = TakeSnapshot(map);
    ScannerLoop(map, scan_rng, scan_replay_rng, o, w, &scans, &scan_log,
                &spans, &layers);
    writer.join();
    const MapSnapshot end = TakeSnapshot(map);
    spans.Close();

    writes.attempted++;
    if (!FullScanMatches(map, *load.present, o.sabotage)) writes.failed++;
    map.DrainReclamation();
    bytes_per_key.push_back(static_cast<double>(map.MemoryFootprint()) /
                            static_cast<double>(load.present->Count()));
    if (o.trace) {
      layers.AddWindow(begin, end);
      layers.AddCensus(map.Census(), map.Config().chunk_capacity);
      AddClientTotals({&writes}, /*scans=*/false, &layers);
      AddClientTotals({&scans}, /*scans=*/true, &layers);
      AddSliceRates({&scans, &writes}, w, &layers);
    }
    scan_tally.Append(scans);
    write_tally.Append(writes);
  }
  result.setup_s = Quantile(setup_s, 0.5);
  result.bytes_per_key = Quantile(bytes_per_key, 0.5);
  Summarize({&scan_tally, &write_tally}, &result);
  if (o.trace) {
    result.spans = scan_log.Spans();
    result.spans.insert(result.spans.end(), write_log.Spans().begin(),
                        write_log.Spans().end());
    result.layers =
        LayerMetrics(layers, result.spans, RunProbes(o.seed), result);
  }
  return result;
}

Result RunIngest(const Options& o) {
  Result result;
  IngestClient client(o);
  Tally tally;
  SpanLog log(1);
  LayerInputs layers;
  std::vector<double> setup_s;
  std::vector<double> bytes_per_key;
  const std::uint64_t window_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
  const std::uint64_t start = NowNs();
  // Epochs until the window is over, and at least 3 for the medians.
  for (std::size_t epoch = 0; epoch < 3 || NowNs() - start < window_ns;
       ++epoch) {
    PinToCpu(epoch);
    const std::uint64_t t0 = NowNs();
    if (epoch == 0) client.FillWindow();
    std::unique_ptr<KiWiByteMap> map = LoadWindow(client.Shadow());
    setup_s.push_back(SecondsSince(t0));
    // Odd epochs are traced in a traced run; even ones measure the rate the
    // trace overhead is compared against.
    SpanLog* traced = o.trace && (epoch & 1) == 1 ? &log : nullptr;
    const std::uint32_t round = log.NextId();
    for (std::size_t step = 0; step < kEpochWarmSteps; ++step) {
      client.Step(*map, &tally, nullptr, nullptr, round, &layers);
    }
    const MapSnapshot begin = TakeSnapshot(*map);
    tally.slices.emplace_back();
    const std::uint64_t m0 = NowNs();
    for (std::size_t step = kEpochWarmSteps; step < kEpochSteps; ++step) {
      client.Step(*map, &tally, &tally.slices.back(), traced, round, &layers);
      if (o.trace) layers.SampleGauges(*map);
    }
    const std::uint64_t m1 = NowNs();
    const MapSnapshot end = TakeSnapshot(*map);
    if (traced != nullptr) log.Add(Span{round, 0, round, "round", m0, m1});
    if (o.trace) {
      const SliceTally& s = tally.slices.back();
      ((epoch & 1) ? layers.traced_rate : layers.untraced_rate)
          .push_back(static_cast<double>(s.read_calls + s.write_calls) * 1e9 /
                     static_cast<double>(m1 - m0));
      layers.AddWindow(begin, end);
      layers.AddCensus(map->Census(), map->Config().chunk_capacity);
    }
    map->DrainReclamation();
    bytes_per_key.push_back(static_cast<double>(map->MemoryFootprint()) /
                            static_cast<double>(kWindowEvents));
  }
  result.setup_s = Quantile(setup_s, 0.5);
  result.bytes_per_key = Quantile(bytes_per_key, 0.5);
  Summarize({&tally}, &result);
  if (o.trace) {
    AddClientTotals({&tally}, /*scans=*/true, &layers);
    result.spans = log.Spans();
    result.layers =
        LayerMetrics(layers, result.spans, RunProbes(o.seed), result);
  }
  return result;
}

}  // namespace perfbench
