// KiWiMap — the paper's contribution: a linearizable ordered key-value map
// with wait-free gets and scans and lock-free puts (paper §3).
//
//   KiWiMap map;
//   map.Put(17, 1);
//   map.Scan(0, 100, [](Key k, Value v) { ... });   // atomic snapshot
//
// Design recap:
//  * Data lives in chunks (contiguous key ranges) strung on a sorted linked
//    list behind a lazy index; see chunk.h.
//  * Scans drive multi-versioning: a scan fetch-and-increments the global
//    version GV and reads at that version; puts reuse the current GV value,
//    overwriting same-version data in place, so version bookkeeping costs
//    fall on (long, rare) scans instead of (short, frequent) puts.
//  * Scans/gets help pending puts acquire versions through the per-chunk
//    PPA, making put ordering consistent across readers.
//  * A background-free rebalance procedure (triggered by puts, executed by
//    whoever trips it, helped by anyone who bumps into it) compacts, splits
//    and merges chunks in seven idempotent stages (§3.3.2).
//  * Disconnected chunks are reclaimed through epoch-based reclamation.
//
// The map is templated on a key/value Layout (core/layout.h):
// `KiWiMap` = KiWiMapT<Int64Layout> is the original fixed-width map (every
// trait call is an identity, so it compiles to the pre-template hot paths);
// KiWiMapT<ByteLayout> stores variable-length byte strings through per-chunk
// arenas and is surfaced to users as api::KiWiByteMap (src/api/byte_map.h).
//
// Thread safety: all public methods may be called from any number of threads
// concurrently (at most kMaxThreads distinct threads over the map lifetime
// at once).  Get/Scan are wait-free, Put/Remove lock-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/random.h"
#include "common/thread_registry.h"
#include "core/chunk.h"
#include "core/policy.h"
#include "core/rebalance_object.h"
#include "core/version.h"
#include "index/chunk_index.h"
#include "obs/report.h"
#include "reclaim/ebr.h"
#include "reclaim/pool.h"

namespace kiwi::obs {
class MetricsPump;
struct MetricsPumpOptions;
}  // namespace kiwi::obs

namespace kiwi::core {

template <typename Layout>
class KiWiMapT {
 public:
  // In-class spellings: inside this template, `Chunk`, `Psa` and `PsaEntry`
  // refer to this layout's instantiations (shadowing the int64 aliases), so
  // the implementation reads like the fixed-width original.
  using Chunk = ChunkT<Layout>;
  using PsaKey = typename Layout::PsaKey;
  using Psa = PsaT<PsaKey>;
  using PsaEntry = PsaEntryT<PsaKey>;
  using KeyView = typename Layout::KeyView;
  using ValueView = typename Layout::ValueView;
  using OwnedKey = typename Layout::OwnedKey;
  using OwnedValue = typename Layout::OwnedValue;
  /// What the collecting Scan / bulk-load ctor traffic in.  For int64 this
  /// is pair<Key, Value>, exactly as before; for bytes pair<string, string>.
  using Entry = std::pair<OwnedKey, OwnedValue>;

  explicit KiWiMapT(KiWiConfig config = {});

  /// Bulk-load construction: carves `sorted_entries` (strictly ascending
  /// keys, no tombstones) into chunks with the rebalance build's chunk
  /// builder, without going through Put — O(n) instead of O(n log n) with
  /// rebalance churn.  Useful for loading datasets before a benchmark or
  /// restoring a backup.
  explicit KiWiMapT(std::span<const Entry> sorted_entries,
                    KiWiConfig config = {});

  ~KiWiMapT();
  KiWiMapT(const KiWiMapT&) = delete;
  KiWiMapT& operator=(const KiWiMapT&) = delete;

  /// Insert or overwrite.  Lock-free.  `key` must be a user key (int64:
  /// >= kMinUserKey; bytes: non-empty) and `value` must not be the reserved
  /// tombstone (int64: kTombstoneValue; bytes: any value is legal).  For
  /// byte layouts key + value must fit kMaxEntryBytes (clamped to a quarter
  /// of the chunk arena); the map copies both, so callers keep ownership of
  /// the viewed buffers.
  void Put(KeyView key, ValueView value);

  /// Insert or overwrite every pair of `entries` — equivalent to calling
  /// Put for each in order (duplicate keys: the last occurrence wins), but
  /// amortized: the batch is sorted once, the chunk list is walked once,
  /// and each chunk absorbs its covered run in one pass (two index claims
  /// per run instead of per key).  Long presorted runs are installed by
  /// building replacement chunks directly from the batch through the
  /// rebalance machinery, bypassing the per-key PPA round trip entirely.
  ///
  /// NOT atomic as a whole: each entry linearizes individually somewhere
  /// inside the call, exactly as a sequence of Puts would, so concurrent
  /// scans may observe any prefix-consistent subset.  Lock-free.  Keys and
  /// values obey the same rules as Put.  See docs/INGEST.md for the full
  /// walkthrough.
  void PutBatch(std::span<const Entry> entries);

  /// Remove `key` (puts the tombstone, paper's put(⊥)).  Lock-free.
  void Remove(KeyView key);

  /// Latest value of `key`, or nullopt.  Wait-free, linearizable.
  std::optional<OwnedValue> Get(KeyView key);

  /// Atomic snapshot of [from_key, to_key] (inclusive), in ascending key
  /// order.  Wait-free, linearizable.  Returns the number of pairs yielded.
  /// The views handed to `yield` are valid only for the duration of the
  /// callback (they point into chunk storage pinned by the scan's guard).
  std::size_t Scan(KeyView from_key, KeyView to_key,
                   const std::function<void(KeyView, ValueView)>& yield);

  /// Convenience overload collecting into a vector (cleared first).
  std::size_t Scan(KeyView from_key, KeyView to_key, std::vector<Entry>& out);

  /// Atomic snapshot of every key at or above `from_key` — a Scan with no
  /// upper bound.  Byte keys have no maximum key, so this is the only way
  /// to scan a byte map to the end; for int64 it equals Scan(from_key,
  /// kMaxUserKey, ...).
  std::size_t ScanFrom(KeyView from_key,
                       const std::function<void(KeyView, ValueView)>& yield);

  /// A consistent read view: one scan read-point held open across any
  /// number of gets and range reads (an extension the paper's design makes
  /// natural — a snapshot IS a pinned PSA entry).  Opening one takes its
  /// read point exactly as a scan does, over the whole key range; its Get
  /// and Scan run the map's own point and range reads at that read point.
  /// All queries through one Snapshot observe the same linearization
  /// point; writers proceed unimpeded but their updates are invisible to
  /// the view.
  ///
  /// Retention bound: the pinned version blocks compaction of every newer
  /// version, so each overwrite of a key that follows a global-version bump
  /// (any scan or snapshot open) stays until the view closes, and one key's
  /// versions never split across chunks.  Once a key's retained versions
  /// approach chunk_capacity, its chunk rebuilds full: Put to it stops
  /// returning and PutBatch can abort ("one key's version run exceeds a
  /// whole chunk").  With the default config, 100 keys, one open Snapshot
  /// and Put(5, i) alternating with Scan(1, 10), the put hangs at i = 924.
  /// Keep scan-separated overwrites of any one key during a view's life
  /// well below chunk_capacity (docs/TESTING.md has both repros).
  ///
  /// Each open view owns one of the map's kMaxSnapshots slots, claimed on
  /// open and released on destruction; one more open view aborts.  Any
  /// thread may read through a view, concurrently with others, and destroy
  /// it once no read through it is running.
  class Snapshot {
   public:
    explicit Snapshot(KiWiMapT& map);
    ~Snapshot();
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    /// Value of `key` as of the snapshot's read point.
    std::optional<OwnedValue> Get(KeyView key);

    /// Range read at the snapshot's read point.
    std::size_t Scan(KeyView from_key, KeyView to_key,
                     const std::function<void(KeyView, ValueView)>& yield);
    std::size_t Scan(KeyView from_key, KeyView to_key,
                     std::vector<Entry>& out);

    /// The pinned version (diagnostics).
    Version ReadPoint() const { return read_point_; }

   private:
    KiWiMapT& map_;
    std::size_t slot_;  // this view's entry in map_.snapshot_pins_
    Version read_point_;
    std::uint64_t seq_;
  };

  /// Simultaneously open Snapshot views allowed per map.
  static constexpr std::size_t kMaxSnapshots = 4 * kMaxThreads;

  /// Number of live keys — O(n), implemented as a full scan.
  std::size_t Size();

  /// Approximate bytes held by chunks + index (Figure 5 metric).
  std::size_t MemoryFootprint();

  /// Full observability snapshot: counters, latency histograms, the chunk
  /// census and structural-health gauges, renderable as text or one-line
  /// JSON, from one walk of the chunk list.  See docs/OBSERVABILITY.md.
  /// Concurrent callers get a consistent-enough estimate; quiescent callers
  /// exact numbers (then gauges.memory_bytes == MemoryFootprint()).
  obs::DebugReport DebugReport();

  /// Chunk-health census: one O(chunks) epoch-guarded walk of the list,
  /// reporting chunk and cell counts, per-chunk fill factor, sorted-prefix
  /// vs linked-suffix ratio, arena fill (byte layouts), slab bytes,
  /// pending-rebalance state and age, as means and distribution
  /// histograms.  The one structural report: DebugReport carries it.  Live
  /// regardless of KIWI_STATS (like the gauges).  Defined in
  /// obs/census.cpp so core objects carry no obs references.
  obs::ChunkCensus Census();

  /// Start the continuous-telemetry pump: a background thread snapshotting
  /// DebugReport every `options.interval`, computing deltas/rates,
  /// appending JSONL and serving Prometheus text exposition.  At most one
  /// pump per map; returns false if one is already running.  Defined in
  /// obs/export.cpp; see docs/OBSERVABILITY.md ("Continuous telemetry").
  bool StartMetricsPump(const obs::MetricsPumpOptions& options);

  /// StartMetricsPump configured from KIWI_METRICS / KIWI_METRICS_PROM
  /// (e.g. KIWI_METRICS=1s:/tmp/kiwi.jsonl).  No-op (false) when unset.
  bool StartMetricsPumpFromEnv();

  /// Stop and join the pump, flushing a final sample.  Safe to call with no
  /// pump running; the destructor calls it first thing.
  void StopMetricsPump();

#if KIWI_OBS_ENABLED
  /// Direct access to the counter shards and latency histograms (tests,
  /// custom exporters).  Absent in KIWI_STATS=OFF builds.
  obs::StatsRegistry& Observability() const { return obs_; }
#endif

  const KiWiConfig& Config() const { return policy_.config(); }

  /// Test/diagnostic hook: run a full rebalance over every chunk, forcing
  /// compaction of obsolete versions.  Quiescent callers only.
  void CompactAll();

  /// Validate structural invariants (sorted chunk list, in-chunk order,
  /// ranges).  Quiescent callers only; aborts on violation.  Test hook.
  void CheckInvariants();

  /// Quiescent-only: release every retired chunk (the paper's "full GC"
  /// point before measuring RAM, Figure 5).  Retired slabs land in the pool
  /// as reusable stock; use Pool().GetStats() to separate live from pooled
  /// bytes.
  void DrainReclamation() { ebr_.CollectAllQuiescent(); }

  /// Reclamation diagnostics.
  const reclaim::Ebr& Reclaimer() const { return ebr_; }

  /// Slab-pool diagnostics (hit/miss counters, live vs pooled bytes).
  const reclaim::SlabPool& Pool() const { return pool_; }

 private:
  using RebalanceObject = RebalanceObjectT<Layout>;
  using Item = typename Chunk::Item;

  /// The one write precondition check (Put, Remove, PutBatch, bulk load):
  /// `key` is a user key and, for byte layouts, key + value fit
  /// max_entry_bytes_.  A tombstone carries no value bytes, so the same
  /// check covers Remove.
  void CheckEntry(KeyView key, ValueView value) const;

  /// Shared body of Put and Remove (a remove is a put of the tombstone).
  /// `traced` is the operation's latency-sampling decision; sampled puts
  /// record their flight-recorder events.
  void PutImpl(KeyView key, ValueView value, bool traced);

  /// The one claim of Put and PutBatch's short runs: claim value slots,
  /// cells and (byte layouts) arena bytes for as much of `run` (sorted,
  /// distinct keys covered by `chunk`) as fits, in two fetch-adds, then
  /// InstallEntry each entry.  The claim alone decides fit; one that comes
  /// up short counts a cell_alloc_overflows.  Returns how many leading
  /// entries were installed: fewer than run.size() means the chunk is out
  /// of room or froze.  `traced` records each PPA publish.
  std::size_t InstallRun(Chunk* chunk, std::span<const Item> run,
                         std::size_t slot, bool traced);

  /// The one install path behind InstallRun, after the cell `i` and value
  /// slot `j` (byte layouts: arena bytes at `key_off`) are claimed: fill
  /// them with `entry`'s {key, value} (Chunk::FillCell); re-read the chunk
  /// status (seq_cst) and stop if it froze; publish the cell in this
  /// thread's PPA slot; take or adopt a version; link the cell, searching
  /// from `*hint` (kNullIdx: the batched prefix) and leaving the insertion
  /// predecessor there; release the slot.  Returns false, with nothing
  /// linked, when the chunk froze first: the caller must rebalance or
  /// re-locate.  `traced` records the PPA publish in the flight recorder.
  bool InstallEntry(Chunk* chunk, std::size_t slot, std::uint32_t i,
                    std::uint32_t j, std::uint32_t key_off, const Item& entry,
                    std::int32_t* hint, bool traced);

  /// Shared body of the bounded/unbounded scans.  `to_key` == nullptr
  /// means "no upper bound" (ScanFrom); the PSA publication covers the
  /// layout's whole upper prefix domain in that case.
  std::size_t ScanImpl(KeyView from_key, const KeyView* to_key,
                       const std::function<void(KeyView, ValueView)>& yield);

  /// A read point pinned in a PSA entry.
  struct ReadPin {
    Version version;
    std::uint64_t seq;  // the entry's publication, Clear's ABA guard
    bool helped;        // a helping rebalance installed `version`
  };

  /// The one read-point acquisition of scans and Snapshots (paper
  /// Algorithm 2 lines 32-35): publish [low, high] in `entry` as pending,
  /// fetch-and-increment GV, then install it or adopt the version a
  /// helping rebalance installed.  The publish-before-F&I order is
  /// load-bearing: a rebalance that cannot see the entry may compact away
  /// versions at or below the read point.
  ReadPin AcquireReadPoint(PsaEntry& entry, PsaKey low, PsaKey high);

  /// The one point read of Get and Snapshot::Get: latest value of `key`
  /// with version <= max_version, after helping pending puts to `key`.
  std::optional<OwnedValue> ReadKey(KeyView key, Version max_version);

  /// The one range read of scans and Snapshot::Scan: every key in
  /// [from_key, *to_key] (`to_key` == nullptr: no upper bound) at
  /// `read_point`, chunk by chunk.  `from_key` must be a user key.
  std::size_t ReadRange(KeyView from_key, const KeyView* to_key,
                        Version read_point,
                        const std::function<void(KeyView, ValueView)>& yield);

  struct BuiltSection {
    Chunk* first = nullptr;
    Chunk* last = nullptr;
    std::uint32_t count = 0;
    std::uint32_t puts_included = 0;
  };

  /// Chunk that currently covers `key` (index lookup + list walk).
  /// Must be called under an EBR guard.
  Chunk* LocateChunk(KeyView key) const;

  /// MemoryFootprint() minus the data chunks: index, map header, sentinel.
  std::size_t FixedFootprint() const;

  /// What CheckRebalance asks of a writer about to claim cells in a chunk.
  enum class Trigger {
    kNone,       // claim in the chunk
    kInfant,     // the chunk was an infant, now normalized: re-locate
    kRebalance,  // the chunk is frozen or the policy calls it due
  };

  /// Paper's checkRebalance (Algorithm 3), the one trigger check of Put
  /// and PutBatch, run before claiming: infant, frozen or due?  The policy
  /// calls a full cell array due; value-slot and arena room are decided by
  /// the claim itself (InstallRun).
  Trigger CheckRebalance(Chunk* chunk);

  /// Paper's rebalance (Algorithm 4 stages 1-5 + normalize) of `chunk`'s
  /// sector, merging `puts` (sorted by key, distinct keys; only {key,
  /// value} views are read) into the replacement section during the build
  /// stage.  Returns the number of entries installed — every put covered
  /// by the sector when our built section won consensus, 0 otherwise (the
  /// caller re-locates and retries; each loss implies another thread's
  /// section was spliced, so retries are lock-free).  Entries linearize at
  /// the splice CAS with the GV current at build time.  Put, compaction
  /// and helpers pass no puts; PutBatch's bulk path passes its run.
  std::size_t Rebalance(Chunk* chunk, std::span<const Item> puts);

  /// Stage 1: agree on the engaged set; returns the rebalance object and
  /// the last engaged chunk.
  RebalanceObject* Engage(Chunk* chunk, Chunk** last_out);

  /// Recompute the last engaged chunk of a sealed rebalance object.
  Chunk* FindLastEngaged(RebalanceObject* ro) const;

  /// Stage 3: minimal read point any pending/future scan may use, helping
  /// pending scans whose range overlaps [from, to_exclusive) acquire
  /// versions.  `bounded` = false means the range extends to +inf.
  Version ComputeMinVersion(KeyView from, KeyView to_exclusive, bool bounded);

  /// Stage 4: build the replacement section from the engaged chunks,
  /// merging the sector-covered subset of `puts` (sorted, distinct keys)
  /// into the compacted data at the current GV.
  BuiltSection BuildSection(RebalanceObject* ro, Chunk* last,
                            Version min_version, std::span<const Item> puts);

  /// The one chunk builder, shared by the build stage and the bulk load:
  /// carve `items` (sorted by Chunk::ItemBefore) into a chain of `status`
  /// chunks with parent `parent`, filled to kFillRatio, never splitting
  /// one key's version run across a boundary and folding a sparse tail
  /// into its predecessor.  The first chunk starts at `first_min_key`,
  /// later ones at their first key.  Builds at least one chunk.
  BuiltSection CarveChunks(std::span<const Item> items, KeyView first_min_key,
                           Chunk* parent, typename Chunk::Status status);

  /// Stage 5: consensus + splice.  Returns true once the (agreed)
  /// replacement section is reachable; *i_won reports whether this thread's
  /// splice CAS succeeded (the winner retires the old section).
  bool Replace(RebalanceObject* ro, Chunk* last, bool* i_won);

  /// Stages 6-7 (paper's normalize): fix the index, then flip infants to
  /// normal.
  void Normalize(RebalanceObject* ro);

  /// Find the live predecessor of `target` in the chunk list, or nullptr if
  /// `target` is no longer reachable.
  Chunk* FindListPredecessor(Chunk* target) const;

  /// Destroy a built-but-never-published section (consensus loser).
  static void DiscardSection(Chunk* first);

  /// Emit one chunk's contribution to a scan (`to` == nullptr: unbounded).
  void EmitChunkRange(Chunk* chunk, KeyView from, const KeyView* to,
                      Version read_point,
                      const std::function<void(KeyView, ValueView)>& yield,
                      std::size_t* emitted);

  /// Compact a sorted, deduplicated item run according to `min_version`
  /// (keep everything newer, plus the newest version at-or-below it unless
  /// that is a tombstone).  Appends survivors of [begin, end) to `out`.
  static void CompactKeyRun(const std::vector<Item>& items, std::size_t begin,
                            std::size_t end, Version min_version,
                            std::vector<Item>& out);

  Xoshiro256& ThreadRng();

  RebalancePolicy policy_;
  /// Slab stock for chunks and rebalance objects.  Declared before ebr_ so
  /// it outlives it: EBR's destructor drains retired chunks, whose deleters
  /// return slabs here.
  mutable reclaim::SlabPool pool_;
  mutable reclaim::Ebr ebr_;
  index::ChunkIndexT<Layout> index_;
  GlobalVersion gv_;
  Psa psa_;
  /// Snapshot views pin their read points here, apart from scans, each in
  /// a slot it claims from snapshot_slots_ on open and releases on
  /// destruction.  ComputeMinVersion walks psa_ and snapshot_pins_.
  SlotAllocator<kMaxSnapshots> snapshot_slots_;
  PsaT<PsaKey, kMaxSnapshots> snapshot_pins_;
  Chunk* sentinel_;  // permanent list head, never engaged
  /// Arena bytes per chunk (chunk_capacity * bytes.arena_bytes_per_cell for
  /// byte layouts, 0 for fixed-width) and the per-entry byte cap
  /// (kMaxEntryBytes clamped to a quarter of the arena).
  std::uint32_t arena_capacity_ = 0;
  std::uint32_t max_entry_bytes_ = 0;

  /// Owned by Start/StopMetricsPump (both defined in obs/export.cpp, so
  /// this stays an opaque pointer here and core objects stay obs-free).
  obs::MetricsPump* pump_ = nullptr;

#if KIWI_OBS_ENABLED
  // Counters (sharded by thread slot, off the hot path's shared state) and
  // latency histograms.  Compiled out entirely with KIWI_STATS=OFF.
  mutable obs::StatsRegistry obs_;
#endif

  friend class KiWiTestPeer;
  // Directed fuzz scenarios (src/fuzz/scenario.cpp) drive Rebalance at
  // hand-built chunk layouts to pin consensus races deterministically.
  friend class FuzzScenarioPeer;
};

/// The fixed-width map — the original spelling and compiled hot paths.
using KiWiMap = KiWiMapT<Int64Layout>;

}  // namespace kiwi::core

// Member definitions (all but the obs-bound members, which live in
// src/obs/*.cpp so core objects carry no obs code):
#include "core/kiwi_map_impl.h"   // IWYU pragma: keep
#include "core/rebalance_impl.h"  // IWYU pragma: keep

namespace kiwi::core {
extern template class KiWiMapT<Int64Layout>;
extern template class KiWiMapT<ByteLayout>;
}  // namespace kiwi::core
