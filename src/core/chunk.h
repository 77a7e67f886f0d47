// The KiWi chunk (paper Algorithm 1, Figure 1).
//
// A chunk owns a contiguous key range [min_key, next->min_key) and stores its
// data in two arrays:
//   - `k`: cells forming an intra-chunk linked list sorted by
//     (key ascending, version descending, valPtr descending);
//   - `v`: the values cells point into (`valPtr`), preserving the paper's
//     indirection so that puts with equal {key, version} are tie-broken by
//     their fetch-and-added value location.
//
// A prefix of `k` (the *batched prefix*) is sorted and binary-searchable;
// later insertions link new cells into the list via bypasses, so searches are
// binary over the prefix + linear over the remainder.
//
// Each chunk carries a Pending Put Array (PPA) with one slot per thread.  A
// put publishes the cell it is inserting there *before* acquiring a version,
// which lets scans/gets help assign versions (§3.2) and lets rebalance freeze
// the chunk (§3.3.2 stage 2).  Slot state is a single 64-bit word packing
// {version:48, cellIdx:16} so the helping CAS covers both fields.
//
// The chunk is templated on a key/value Layout (core/layout.h).  For
// Int64Layout cells hold the key and `v` slots hold the value directly; for
// ByteLayout cells hold {prefix, offset, length} into a per-chunk
// append-only byte arena at the slab tail, and `v` slots hold
// {offset, length}.  `using Chunk = ChunkT<Int64Layout>` keeps the original
// fixed-width map's spelling (and its compiled hot paths) unchanged.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/config.h"
#include "common/marked_ptr.h"
#include "common/thread_registry.h"
#include "core/layout.h"
#include "core/version.h"
#include "reclaim/pool.h"

namespace kiwi::core {

template <typename Layout>
struct RebalanceObjectT;

/// Out-of-line hook so ~ChunkT need not see RebalanceObject's definition
/// (defined in chunk.cpp; rebalance_object.h would cycle back here).
template <typename Layout>
void UnrefRebalanceObject(RebalanceObjectT<Layout>* ro);

template <typename Layout>
class KiWiMapT;

// A chunk is one contiguous cache-aligned slab: the header below, then the
// cell array `k` (capacity + 1 entries, cell 0 a sentinel), then the value
// array `v` (capacity entries), then — for arena layouts — `arena_capacity`
// bytes of append-only key/value storage.  `k`/`v`/`a` are computed offsets
// into the slab, so creating or retiring a chunk is a single pool round trip
// instead of several heap allocations.  Construction goes through
// Create/Destroy — the constructor is private because a Chunk only makes
// sense inside its slab.
template <typename Layout>
class alignas(kCacheLineSize) ChunkT {
 public:
  using KeyView = typename Layout::KeyView;
  using ValueView = typename Layout::ValueView;
  using CellKey = typename Layout::CellKey;
  using StoredValue = typename Layout::StoredValue;
  using Probe = typename Layout::Probe;

  enum class Status : std::uint32_t {
    kInfant,   // created by rebalance, immutable until normalize
    kNormal,   // mutable
    kFrozen,   // engaged in rebalance, immutable forever
    kSentinel  // the permanent list head; holds no data, never engaged
  };

  /// Terminator / "no cell" marker for intra-chunk list links.
  static constexpr std::int32_t kNullIdx = -1;

  // ---- PPA word packing: [version:48 | idx:16] -------------------------
  static constexpr std::uint64_t kPpaIdxMask = 0xFFFF;
  static constexpr std::uint32_t kPpaNoIdx = 0xFFFF;
  static constexpr Version kPpaVerBottom = 0;
  static constexpr Version kPpaVerFrozen = (std::uint64_t{1} << 48) - 1;
  static constexpr std::uint64_t kPpaIdle =
      (kPpaVerBottom << 16) | kPpaNoIdx;  // {⊥, ⊥}

  static constexpr std::uint64_t PackPpa(Version ver, std::uint32_t idx) {
    return (ver << 16) | (idx & kPpaIdxMask);
  }
  static constexpr Version PpaVer(std::uint64_t word) { return word >> 16; }
  static constexpr std::uint32_t PpaIdx(std::uint64_t word) {
    return static_cast<std::uint32_t>(word & kPpaIdxMask);
  }

  /// One entry of array `k`.
  struct Cell {
    CellKey key{};
    /// Written once by the owning put (copied from its PPA slot) before the
    /// cell is linked; read only through the PPA or after the linking CAS.
    Version version = kNoVersion;
    /// Index into `v`.  CAS target: a put that lost the {key, version} race
    /// redirects the winning cell to its (larger-indexed) value.
    std::atomic<std::int32_t> val_ptr{kNullIdx};
    /// Next cell in the intra-chunk list, kNullIdx at the tail.
    std::atomic<std::int32_t> next{kNullIdx};
  };

  /// An entry harvested from the chunk for rebalance or scan merging.  For
  /// arena layouts the key/value views point into the source chunk's arena
  /// (or a caller's batch buffer) — valid while the caller's EBR guard pins
  /// the frozen source chunk.
  struct Item {
    KeyView key;
    Version version;
    std::int32_t val_ptr;
    ValueView value;
  };

  /// The total order used everywhere: key ascending, version descending,
  /// valPtr descending (larger valPtr wins a {key, version} tie, §3.2).
  static bool ItemBefore(const Item& a, const Item& b) {
    if (!Layout::KeyEq(a.key, b.key)) return Layout::KeyLess(a.key, b.key);
    if (a.version != b.version) return a.version > b.version;
    return a.val_ptr > b.val_ptr;
  }

  /// Bytes of the slab backing a chunk of `capacity` data cells: header +
  /// (capacity + 1) cells + capacity values + the byte arena (zero-sized
  /// for fixed-width layouts), in one allocation.
  static std::size_t SlabBytes(std::uint32_t capacity,
                               std::uint32_t arena_capacity = 0) {
    return sizeof(ChunkT) + (capacity + 1) * sizeof(Cell) +
           capacity * sizeof(StoredValue) + arena_capacity;
  }

  /// Creates a chunk with room for `capacity` data cells in a single slab
  /// drawn from `pool` (recycled from a retired chunk when possible).  Cell
  /// 0 is a list head sentinel, so `k` holds capacity + 1 cells.  `batched`
  /// (sorted by key asc, version desc) seeds the batched prefix; rebalance
  /// passes the compacted data here, the initial chunk passes nothing.  For
  /// arena layouts the min_key and every batched entry's bytes are copied
  /// into the fresh arena — the rebalance build stage gets arena compaction
  /// for free from this copy.
  static ChunkT* Create(reclaim::SlabPool& pool, KeyView min_key,
                        std::uint32_t capacity, ChunkT* parent, Status status,
                        std::span<const Item> batched = {},
                        std::uint32_t arena_capacity = 0);

  /// Destroys `chunk` and returns its slab to the pool it came from.  The
  /// EBR retire path calls this as its deleter, so a slab re-enters
  /// circulation only after every guard that could observe the chunk ends.
  static void Destroy(ChunkT* chunk);

  // ---- immutable identity ---------------------------------------------
  const CellKey min_key;
  const std::uint32_t capacity;
  /// Arena bytes in this slab (0 for fixed-width layouts).
  const std::uint32_t arena_capacity;
  /// Trigger chunk of the rebalance that created this chunk (for infants).
  ChunkT* const parent;

  // ---- shared mutable state -------------------------------------------
  std::atomic<Status> status;
  std::atomic<RebalanceObjectT<Layout>*> ro{nullptr};
  /// Guards the retire/discard invariant: a chunk leaves the structure
  /// exactly once (EBR retire by its sector's splice winner, or plain
  /// delete of a never-published consensus-losing section).  A second
  /// attempt means two rebalance generations claimed the same chunk.
  std::atomic<bool> retired{false};
  /// Next chunk in the global list; the mark freezes it (rebalance stage 5).
  AtomicMarkedPtr<ChunkT> next;
  /// Next free cell in `k` / value slot in `v`.  May exceed capacity; the
  /// allocation checks in Put handle overflow by rebalancing.
  std::atomic<std::uint32_t> k_counter;
  std::atomic<std::uint32_t> v_counter;
  /// Next free arena byte.  May exceed arena_capacity (failed claims leave
  /// their reservation behind); Put handles overflow by rebalancing, and
  /// the build-stage copy into a fresh arena compacts the waste away.
  std::atomic<std::uint32_t> arena_used;
  /// Number of sorted data cells at the front of `k` (immutable).
  const std::uint32_t batched_count;
  /// steady_clock nanoseconds at Create; the chunk-health census reports
  /// list age distribution from this (plain field, no obs dependency).
  const std::uint64_t birth_ns;

  Cell* const k;        // into the slab; [0] = sentinel, data in [1, capacity]
  StoredValue* const v; // into the slab; data value slots [0, capacity)
  char* const a;        // into the slab; the byte arena (arena layouts only)
  std::atomic<std::uint64_t> ppa[kMaxThreads];

  // ---- intra-chunk operations -----------------------------------------

  ChunkT* Next() const { return next.Load().Ptr(); }

  /// This chunk's min key as a view (for arena layouts the bytes live at
  /// the front of the chunk's own arena, immutable after Create).
  KeyView MinKey() const { return Layout::CellKeyView(a, min_key); }

  /// Index of the last *batched-prefix* cell with key below `probe`'s key
  /// (possibly the cell-0 sentinel): the starting point for list
  /// traversals.  Callers that compare many keys against one chunk build
  /// the probe once and reuse it.
  std::int32_t BatchedPredecessorProbe(const Probe& probe) const;

  /// Walk the list for the cell with exactly {key, version}, starting at
  /// cell `start`: a linked cell with key strictly below `key`, or kNullIdx
  /// to start from the batched prefix (BatchedPredecessorProbe).  On miss,
  /// reports the insertion point: *pred is the cell after which {key,
  /// version} belongs and *succ the cell that currently follows it (the
  /// exact expected value for the linking CAS; kNullIdx at the tail).
  /// Returns kNullIdx on miss, the cell index on hit.  PutBatch threads the
  /// previous insertion's predecessor through `start`: batch keys ascend,
  /// so the insertion point only ever moves forward along the list.
  std::int32_t FindCellFrom(std::int32_t start, KeyView key, Version version,
                            std::int32_t* pred, std::int32_t* succ) const;

  /// Latest visible version of `key` with version <= `max_version`,
  /// considering both the linked list and versioned PPA entries
  /// (paper's findLatest).  Returns false if no such version exists.
  /// Tombstones are reported with found=true and is_tombstone=true.
  struct LatestResult {
    bool found = false;
    bool is_tombstone = false;
    ValueView value{};
    Version version = kNoVersion;
    std::int32_t val_ptr = kNullIdx;
  };
  LatestResult FindLatest(KeyView key, Version max_version) const;

  /// Paper's helpPendingPuts: install the current GV into every pending,
  /// versionless PPA entry whose key is within [from, *to] (`to` ==
  /// nullptr: no upper bound, as byte keys have no finite maximum).
  void HelpPendingPuts(GlobalVersion& gv, KeyView from, const KeyView* to);
  void HelpPendingPuts(GlobalVersion& gv, KeyView from, KeyView to) {
    HelpPendingPuts(gv, from, &to);
  }

  /// Freeze every PPA slot that has no version yet (rebalance stage 2).
  /// Returns the number of CAS attempts that lost to a concurrent publish
  /// or help (contention telemetry; the rebalance caller accounts it).
  std::uint64_t FreezePpa();

  /// Allocated data-cell count (includes cells that lost races; an upper
  /// bound on live entries, used by the rebalance policy).
  std::uint32_t AllocatedCells() const {
    const std::uint32_t counter = k_counter.load(std::memory_order_acquire);
    return (counter > capacity ? capacity : counter - 1);
  }

  /// Arena bytes claimed so far, clamped to capacity (census/policy; failed
  /// claims may push the raw counter past the end).
  std::uint32_t ArenaUsed() const {
    const std::uint32_t used = arena_used.load(std::memory_order_acquire);
    return used > arena_capacity ? arena_capacity : used;
  }

  /// Claim `need` arena bytes; on success *off is the claimed offset.
  /// Failure (arena exhausted) leaves a dead reservation behind — the
  /// caller routes to rebalance, whose build-copy compacts it away.
  bool ClaimArena(std::uint32_t need, std::uint32_t* off) {
    const std::uint32_t got =
        arena_used.fetch_add(need, std::memory_order_relaxed);
    if (got > arena_capacity || need > arena_capacity - got) return false;
    *off = got;
    return true;
  }

  /// Approximate bytes owned by this chunk (memory-footprint bench).
  std::size_t MemoryFootprint() const {
    // The whole chunk is one slab; report what the pool actually reserved.
    return reclaim::SlabPool::RoundedSize(SlabBytes(capacity, arena_capacity));
  }

  /// Harvest every list cell plus every *versioned* PPA entry, sorted by
  /// (key asc, version desc, valPtr desc) and deduplicated; used by
  /// rebalance's build stage and by tests.
  void CollectItems(std::vector<Item>& out) const;

  /// Append versioned PPA entries with key in [from, *to] (`to` ==
  /// nullptr: no upper bound) and version <= max_version to `out`
  /// (unsorted).  Scans use this to merge pending puts with the list; must
  /// run *before* the list pass (see FindLatest).
  void CollectPpaItems(std::vector<Item>& out, KeyView from, const KeyView* to,
                       Version max_version) const;

  friend class KiWiMapT<Layout>;

 private:
  ChunkT(reclaim::SlabPool* pool, KeyView min_key, std::uint32_t capacity,
         std::uint32_t arena_capacity, ChunkT* parent, Status status,
         std::span<const Item> batched);

  /// Drops the chunk's reference on its rebalance object, if engaged (see
  /// rebalance_object.h for the lifetime story).  Only Destroy calls this.
  ~ChunkT();

  /// Key/value views of a fully materialized cell, resolved through the
  /// arena for byte layouts.
  ValueView LoadValue(std::int32_t val_ptr) const {
    return Layout::LoadValue(a, v[val_ptr]);
  }

  /// The pool the slab came from (and returns to in Destroy).
  reclaim::SlabPool* const pool_;
};

/// The fixed-width map's chunk — the original spelling, unchanged hot paths.
using Chunk = ChunkT<Int64Layout>;

// ---- definitions ---------------------------------------------------------

template <typename Layout>
ChunkT<Layout>* ChunkT<Layout>::Create(reclaim::SlabPool& pool,
                                       KeyView min_key, std::uint32_t capacity,
                                       ChunkT* parent, Status status,
                                       std::span<const Item> batched,
                                       std::uint32_t arena_capacity) {
  void* slab = pool.Allocate(SlabBytes(capacity, arena_capacity));
  return new (slab)
      ChunkT(&pool, min_key, capacity, arena_capacity, parent, status, batched);
}

template <typename Layout>
void ChunkT<Layout>::Destroy(ChunkT* chunk) {
  reclaim::SlabPool* pool = chunk->pool_;
  const std::size_t bytes = SlabBytes(chunk->capacity, chunk->arena_capacity);
  chunk->~ChunkT();
  pool->Deallocate(chunk, bytes);
}

namespace detail {
template <typename Layout>
typename Layout::CellKey MakeMinKeyCell(typename Layout::KeyView min_key) {
  if constexpr (Layout::kHasArena) {
    // The min_key bytes are copied to the front of this chunk's own arena
    // (offset 0) by the constructor body.
    return typename Layout::CellKey{
        Layout::MakePrefix(min_key), 0,
        static_cast<std::uint32_t>(min_key.size())};
  } else {
    return min_key;
  }
}
}  // namespace detail

template <typename Layout>
ChunkT<Layout>::ChunkT(reclaim::SlabPool* pool, KeyView min_key_arg,
                       std::uint32_t capacity_arg,
                       std::uint32_t arena_capacity_arg, ChunkT* parent_arg,
                       Status status_arg, std::span<const Item> batched)
    : min_key(detail::MakeMinKeyCell<Layout>(min_key_arg)),
      capacity(capacity_arg),
      arena_capacity(arena_capacity_arg),
      parent(parent_arg),
      status(status_arg),
      next(nullptr),
      k_counter(1 + static_cast<std::uint32_t>(batched.size())),
      v_counter(static_cast<std::uint32_t>(batched.size())),
      arena_used(0),
      batched_count(static_cast<std::uint32_t>(batched.size())),
      birth_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())),
      k(reinterpret_cast<Cell*>(reinterpret_cast<char*>(this) +
                                sizeof(ChunkT))),
      v(reinterpret_cast<StoredValue*>(reinterpret_cast<char*>(this) +
                                       sizeof(ChunkT) +
                                       (capacity_arg + 1) * sizeof(Cell))),
      a(reinterpret_cast<char*>(this) + sizeof(ChunkT) +
        (capacity_arg + 1) * sizeof(Cell) +
        capacity_arg * sizeof(StoredValue)),
      pool_(pool) {
  KIWI_ASSERT(batched.size() <= capacity, "batched prefix exceeds capacity");
  // The slab tail holds raw storage: bring the cells to life (values are
  // write-before-read, like the `new Value[n]` default-init they replace).
  for (std::uint32_t i = 0; i <= capacity_arg; ++i) new (&k[i]) Cell();
  std::uninitialized_default_construct_n(v, capacity_arg);
  // Cell 0 is the list-head sentinel.
  k[0].key = Layout::SentinelCellKey();
  k[0].version = kPendingVersion;  // never compared
  k[0].next.store(batched.empty() ? kNullIdx : 1, std::memory_order_relaxed);
  std::uint32_t arena_off = 0;
  if constexpr (Layout::kHasArena) {
    // min_key first, then the batched entries' bytes, appended in order —
    // this copy IS the arena compaction rebalance gets for free.
    KIWI_ASSERT(min_key_arg.size() <= arena_capacity,
                "chunk min_key exceeds the arena");
    std::memcpy(a, min_key_arg.data(), min_key_arg.size());
    arena_off = static_cast<std::uint32_t>(min_key_arg.size());
  }
  // Seed the sorted prefix: cell i holds batched[i-1] and points to v[i-1].
  for (std::size_t i = 0; i < batched.size(); ++i) {
    KIWI_DASSERT(i == 0 || !ItemBefore(batched[i], batched[i - 1]),
                 "batched prefix must be sorted");
    Cell& cell = k[i + 1];
    cell.version = batched[i].version;
    cell.val_ptr.store(static_cast<std::int32_t>(i),
                       std::memory_order_relaxed);
    cell.next.store(i + 1 < batched.size() ? static_cast<std::int32_t>(i + 2)
                                           : kNullIdx,
                    std::memory_order_relaxed);
    if constexpr (Layout::kHasArena) {
      const KeyView key = batched[i].key;
      const ValueView value = batched[i].value;
      const std::uint32_t need = static_cast<std::uint32_t>(
          Layout::EntryArenaBytes(key, value));
      KIWI_ASSERT(need <= arena_capacity - arena_off,
                  "batched entries exceed the arena");
      std::memcpy(a + arena_off, key.data(), key.size());
      cell.key = CellKey{Layout::MakePrefix(key), arena_off,
                         static_cast<std::uint32_t>(key.size())};
      const std::uint32_t val_off =
          arena_off + static_cast<std::uint32_t>(key.size());
      if (Layout::IsTombstone(value)) {
        v[i] = StoredValue{0, Layout::kTombstoneLen};
      } else {
        std::memcpy(a + val_off, value.data(), value.size());
        v[i] = StoredValue{val_off, static_cast<std::uint32_t>(value.size())};
      }
      arena_off += need;
    } else {
      cell.key = batched[i].key;
      v[i] = batched[i].value;
    }
  }
  arena_used.store(arena_off, std::memory_order_relaxed);
  for (auto& entry : ppa) entry.store(kPpaIdle, std::memory_order_relaxed);
}

template <typename Layout>
ChunkT<Layout>::~ChunkT() {
  if (RebalanceObjectT<Layout>* engaged = ro.load(std::memory_order_acquire)) {
    UnrefRebalanceObject(engaged);
  }
}

template <typename Layout>
std::int32_t ChunkT<Layout>::BatchedPredecessorProbe(const Probe& probe) const {
  // Largest index in [1, batched_count] whose key is strictly below `key`
  // (the prefix is sorted by key; equal keys sit in descending-version order
  // but we only need a strict-lower bound here).  0 = sentinel if none.
  std::uint32_t lo = 0;
  std::uint32_t hi = batched_count;  // inclusive upper cell index
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo + 1) / 2;
    if (Layout::CompareCell(a, k[mid].key, probe) < 0) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return static_cast<std::int32_t>(lo);
}

template <typename Layout>
std::int32_t ChunkT<Layout>::FindCellFrom(std::int32_t start, KeyView key,
                                          Version version, std::int32_t* pred,
                                          std::int32_t* succ) const {
  const Probe probe = Layout::MakeProbe(key);
  KIWI_DASSERT(start == kNullIdx || start == 0 ||
                   Layout::CompareCell(a, k[start].key, probe) < 0,
               "FindCellFrom hint must precede the target key");
  std::int32_t prev = start == kNullIdx ? BatchedPredecessorProbe(probe) : start;
  std::int32_t curr = k[prev].next.load(std::memory_order_acquire);
  std::int32_t hit = kNullIdx;
  while (curr != kNullIdx) {
    const Cell& cell = k[curr];
    const int cmp = Layout::CompareCell(a, cell.key, probe);
    if (cmp > 0 || (cmp == 0 && cell.version <= version)) {
      if (cmp == 0 && cell.version == version) hit = curr;
      break;
    }
    prev = curr;
    curr = cell.next.load(std::memory_order_acquire);
  }
  if (pred != nullptr) *pred = prev;
  if (succ != nullptr) *succ = curr;
  return hit;
}

template <typename Layout>
typename ChunkT<Layout>::LatestResult ChunkT<Layout>::FindLatest(
    KeyView key, Version max_version) const {
  LatestResult best;
  const Probe probe = Layout::MakeProbe(key);

  // PPA candidates first, list second.  The order matters: a put that links
  // its cell and then clears its PPA slot between our two passes is seen by
  // the list pass; the reverse order could miss it in both.
  //
  // Entries still at ⊥ were published after our helping pass and are ordered
  // after us; frozen entries belong to puts that will restart.
  const std::size_t high_water = ThreadRegistry::HighWater();
  for (std::size_t t = 0; t < high_water; ++t) {
    const std::uint64_t word = ppa[t].load(std::memory_order_seq_cst);
    const Version ver = PpaVer(word);
    if (ver == kPpaVerBottom || ver == kPpaVerFrozen || ver > max_version) {
      continue;
    }
    const std::uint32_t idx = PpaIdx(word);
    if (idx == kPpaNoIdx) continue;
    const Cell& cell = k[idx];
    if (Layout::CompareCell(a, cell.key, probe) != 0) continue;
    const std::int32_t val_ptr = cell.val_ptr.load(std::memory_order_acquire);
    if (!best.found || ver > best.version ||
        (ver == best.version && val_ptr > best.val_ptr)) {
      best.found = true;
      best.version = ver;
      best.val_ptr = val_ptr;
    }
  }

  // List candidate: versions of a key are chained in descending order, so
  // the first in-range cell is the latest visible one.
  std::int32_t curr =
      k[BatchedPredecessorProbe(probe)].next.load(std::memory_order_acquire);
  while (curr != kNullIdx) {
    const Cell& cell = k[curr];
    const int cmp = Layout::CompareCell(a, cell.key, probe);
    if (cmp > 0) break;
    if (cmp == 0 && cell.version <= max_version) {
      const std::int32_t val_ptr =
          cell.val_ptr.load(std::memory_order_acquire);
      if (!best.found || cell.version > best.version ||
          (cell.version == best.version && val_ptr > best.val_ptr)) {
        best.found = true;
        best.version = cell.version;
        best.val_ptr = val_ptr;
      }
      break;
    }
    curr = cell.next.load(std::memory_order_acquire);
  }

  if (best.found) {
    best.value = LoadValue(best.val_ptr);
    best.is_tombstone = Layout::IsTombstone(best.value);
  }
  return best;
}

template <typename Layout>
void ChunkT<Layout>::HelpPendingPuts(GlobalVersion& gv, KeyView from,
                                     const KeyView* to) {
  const Probe from_probe = Layout::MakeProbe(from);
  const Probe to_probe = to != nullptr ? Layout::MakeProbe(*to) : Probe{};
  const std::size_t high_water = ThreadRegistry::HighWater();
  for (std::size_t t = 0; t < high_water; ++t) {
    const std::uint64_t word = ppa[t].load(std::memory_order_seq_cst);
    if (PpaVer(word) != kPpaVerBottom) continue;
    const std::uint32_t idx = PpaIdx(word);
    if (idx == kPpaNoIdx) continue;
    const CellKey& key = k[idx].key;
    if (Layout::CompareCell(a, key, from_probe) < 0 ||
        (to != nullptr && Layout::CompareCell(a, key, to_probe) > 0)) {
      continue;
    }
    const Version current = gv.Load();
    std::uint64_t expected = word;
    // Failure means the put assigned its own version, was helped by someone
    // else, or was frozen — all fine.
    ppa[t].compare_exchange_strong(expected, PackPpa(current, idx),
                                   std::memory_order_seq_cst);
  }
}

template <typename Layout>
std::uint64_t ChunkT<Layout>::FreezePpa() {
  std::uint64_t retries = 0;
  for (std::size_t t = 0; t < kMaxThreads; ++t) {
    while (true) {
      const std::uint64_t word = ppa[t].load(std::memory_order_seq_cst);
      if (PpaVer(word) != kPpaVerBottom) break;  // versioned or frozen
      std::uint64_t expected = word;
      if (ppa[t].compare_exchange_strong(expected,
                                         PackPpa(kPpaVerFrozen, PpaIdx(word)),
                                         std::memory_order_seq_cst)) {
        break;
      }
      ++retries;  // lost to a concurrent publish/help; re-read and retry
    }
  }
  return retries;
}

template <typename Layout>
void ChunkT<Layout>::CollectPpaItems(std::vector<Item>& out, KeyView from,
                                     const KeyView* to,
                                     Version max_version) const {
  const Probe from_probe = Layout::MakeProbe(from);
  const Probe to_probe = to != nullptr ? Layout::MakeProbe(*to) : Probe{};
  for (std::size_t t = 0; t < kMaxThreads; ++t) {
    const std::uint64_t word = ppa[t].load(std::memory_order_seq_cst);
    const Version ver = PpaVer(word);
    if (ver == kPpaVerBottom || ver == kPpaVerFrozen || ver > max_version) {
      continue;
    }
    const std::uint32_t idx = PpaIdx(word);
    if (idx == kPpaNoIdx) continue;
    const Cell& cell = k[idx];
    if (Layout::CompareCell(a, cell.key, from_probe) < 0 ||
        (to != nullptr && Layout::CompareCell(a, cell.key, to_probe) > 0)) {
      continue;
    }
    const std::int32_t val_ptr = cell.val_ptr.load(std::memory_order_acquire);
    out.push_back(Item{Layout::CellKeyView(a, cell.key), ver, val_ptr,
                       LoadValue(val_ptr)});
  }
}

template <typename Layout>
void ChunkT<Layout>::CollectItems(std::vector<Item>& out) const {
  const std::size_t base = out.size();
  // PPA before list (same reasoning as FindLatest): a put that links and
  // clears between the passes must be caught by the list walk.  Every cell
  // of a chunk is at or above its min key, so this bound keeps them all.
  CollectPpaItems(out, MinKey(), nullptr, kMaxReadVersion);
  std::int32_t curr = k[0].next.load(std::memory_order_acquire);
  std::uint32_t steps = 0;
  while (curr != kNullIdx) {
    // The list holds at most capacity cells; more steps means a cycle
    // (corruption) — fail loudly instead of walking forever.
    KIWI_ASSERT(++steps <= capacity, "cell list cycle");
    const Cell& cell = k[curr];
    const std::int32_t val_ptr = cell.val_ptr.load(std::memory_order_acquire);
    out.push_back(Item{Layout::CellKeyView(a, cell.key), cell.version,
                       val_ptr, LoadValue(val_ptr)});
    curr = cell.next.load(std::memory_order_acquire);
  }
  std::sort(out.begin() + base, out.end(), ItemBefore);
  // Drop exact duplicates (a completed put appears in both the list and a
  // not-yet-cleared PPA slot) and {key, version} duplicates (the smaller
  // valPtr lost the overwrite race).
  const auto duplicate = [](const Item& a, const Item& b) {
    return Layout::KeyEq(a.key, b.key) && a.version == b.version;
  };
  out.erase(std::unique(out.begin() + base, out.end(), duplicate), out.end());
}

extern template class ChunkT<Int64Layout>;
extern template class ChunkT<ByteLayout>;

}  // namespace kiwi::core
