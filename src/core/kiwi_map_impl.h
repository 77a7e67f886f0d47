// KiWiMapT client operations: put / get / scan (paper Algorithm 2) plus
// construction, diagnostics and the scan merge logic.  Rebalancing lives in
// rebalance_impl.h.  Included by kiwi_map.h only — the template definitions
// live here so both layout instantiations (explicit, in kiwi_map.cpp) come
// from one source of truth.
#pragma once

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/assert.h"
#include "common/test_hooks.h"
#include "common/thread_registry.h"
#include "core/kiwi_map.h"
#include "obs/trace.h"

namespace kiwi::core {

template <typename Layout>
KiWiMapT<Layout>::KiWiMapT(KiWiConfig config)
    : policy_(config), ebr_(), index_(ebr_) {
  KIWI_ASSERT(config.chunk_capacity >= 2 &&
                  config.chunk_capacity < Chunk::kPpaNoIdx,
              "chunk capacity must fit the PPA's 16-bit cell index");
  if constexpr (Layout::kHasArena) {
    const std::uint64_t arena =
        static_cast<std::uint64_t>(config.chunk_capacity) *
        config.bytes.arena_bytes_per_cell;
    KIWI_ASSERT(arena > 0 && arena <= std::numeric_limits<std::int32_t>::max(),
                "per-chunk arena must be positive and fit 31 bits");
    arena_capacity_ = static_cast<std::uint32_t>(arena);
    // One entry must never render a rebalance target unsatisfiable: cap it
    // at a quarter of the arena so a half-filled replacement chunk always
    // has byte headroom for its segment.
    max_entry_bytes_ = std::min(kMaxEntryBytes, arena_capacity_ / 4);
    KIWI_ASSERT(max_entry_bytes_ >= 1, "max_entry_bytes clamped to zero");
  }
  // Permanent sentinel head (minKey = -inf, capacity 0, never engaged) plus
  // one initial data chunk covering the entire user key domain.
  sentinel_ = Chunk::Create(pool_, Layout::SentinelMinKey(), 0, nullptr,
                            Chunk::Status::kSentinel);
  auto* first =
      Chunk::Create(pool_, Layout::MinUserKey(), config.chunk_capacity,
                    nullptr, Chunk::Status::kNormal, {}, arena_capacity_);
  sentinel_->next.Store(MarkedPtr<Chunk>(first, false));
  index_.PutUnconditional(sentinel_->MinKey(), sentinel_);
  index_.PutUnconditional(first->MinKey(), first);
}

template <typename Layout>
KiWiMapT<Layout>::KiWiMapT(std::span<const Entry> sorted_entries,
                           KiWiConfig config)
    : KiWiMapT(config) {
  // Carve the input into half-filled normal chunks, exactly the layout a
  // rebalance would produce, and index them eagerly.
  const std::uint32_t capacity = config.chunk_capacity;
  const std::uint32_t fill = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(kFillRatio * capacity));
  // Byte layouts additionally budget each chunk's arena to kFillRatio so
  // post-load puts have byte headroom, mirroring the cell fill — clamped to
  // always leave one max-size entry of headroom (same livelock guard as the
  // rebalance build carve, see rebalance_impl.h).
  [[maybe_unused]] const std::size_t arena_fill = std::min<std::size_t>(
      std::max<std::size_t>(
          max_entry_bytes_,
          static_cast<std::size_t>(kFillRatio * arena_capacity_)),
      arena_capacity_ - max_entry_bytes_);
  Chunk* tail = sentinel_->Next();  // the initial empty chunk
  std::size_t begin = 0;
  while (begin < sorted_entries.size()) {
    std::vector<Item> items;
    items.reserve(fill);
    [[maybe_unused]] std::size_t arena_bytes = 0;
    if constexpr (Layout::kHasArena) {
      arena_bytes = begin == 0
                        ? Layout::MinUserKey().size()
                        : Layout::ViewKey(sorted_entries[begin].first).size();
    }
    std::size_t end = begin;
    while (end < sorted_entries.size() && end - begin < fill) {
      const auto& [okey, ovalue] = sorted_entries[end];
      const KeyView key = Layout::ViewKey(okey);
      const ValueView value = Layout::ViewValue(ovalue);
      KIWI_ASSERT(Layout::IsUserKey(key), "bulk-load key below user domain");
      KIWI_ASSERT(!Layout::IsTombstone(value), "bulk-load value is reserved");
      KIWI_ASSERT(items.empty() || Layout::KeyLess(items.back().key, key),
                  "bulk-load keys must be strictly ascending");
      KIWI_ASSERT(begin == 0 || end > begin ||
                      Layout::KeyLess(
                          Layout::ViewKey(sorted_entries[begin - 1].first),
                          key),
                  "bulk-load keys must be strictly ascending");
      if constexpr (Layout::kHasArena) {
        const std::size_t need = Layout::EntryArenaBytes(key, value);
        KIWI_ASSERT(need <= max_entry_bytes_,
                    "bulk-load entry exceeds max_entry_bytes");
        if (end > begin && arena_bytes + need > arena_fill) break;
        arena_bytes += need;
      }
      items.push_back(Item{key, /*version=*/1,
                           static_cast<std::int32_t>(end - begin), value});
      ++end;
    }
    // The very first segment loads into a chunk starting at the minimal
    // user key so the whole domain stays covered; later chunks start at
    // their first key.
    const KeyView min_key =
        begin == 0 ? Layout::MinUserKey() : items.front().key;
    auto* chunk = Chunk::Create(pool_, min_key, capacity, nullptr,
                                Chunk::Status::kNormal,
                                std::span<const Item>(items), arena_capacity_);
    KIWI_OBS_INC(obs_, chunks_created);
    if (begin == 0) {
      // Replace the initial empty chunk outright (single-threaded ctor).
      Chunk* initial = sentinel_->Next();
      sentinel_->next.Store(MarkedPtr<Chunk>(chunk, false));
      index_.DeleteConditional(initial->MinKey(), initial);
      Chunk::Destroy(initial);
    } else {
      tail->next.Store(MarkedPtr<Chunk>(chunk, false));
    }
    index_.PutUnconditional(chunk->MinKey(), chunk);
    tail = chunk;
    begin = end;
  }
}

template <typename Layout>
KiWiMapT<Layout>::~KiWiMapT() {
  // Externally synchronized.  The metrics pump (if any) reads the structure
  // from its own thread, so it must be joined before anything is torn down.
  StopMetricsPump();
  // Live chunks are destroyed here; disconnected
  // chunks and rebalance objects drain with ebr_'s destructor.  Their slabs
  // all land in pool_, which frees them last (declared before ebr_).
  Chunk* chunk = sentinel_;
  while (chunk != nullptr) {
    Chunk* next = chunk->Next();
    Chunk::Destroy(chunk);
    chunk = next;
  }
}

template <typename Layout>
auto KiWiMapT<Layout>::LocateChunk(KeyView key) const -> Chunk* {
  // The index may lag the list (lazy updates), so finish with a traversal —
  // but the lag can also hand back a chunk that was already spliced out.  A
  // retired chunk's next pointers still chain through its dead section,
  // whose frozen cells miss every put that completed in the replacement
  // chunks, so a reader that trusts it returns stale data (found by the
  // linearizability fuzzer, seed 74: a scan observed a value overwritten
  // before the scan began).  Same doctrine as FindListPredecessor: never
  // start from or walk through a retired chunk — restart from the sentinel,
  // which is never retired.  Each restart implies another thread's splice
  // completed in the meantime, so this cannot loop without global progress.
  const auto probe = Layout::MakeProbe(key);
  while (true) {
    auto* chunk = static_cast<Chunk*>(index_.Lookup(key));
    if (chunk == nullptr || chunk->retired.load(std::memory_order_acquire)) {
      chunk = sentinel_;
    }
    bool dead_region = false;
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
    if (!dead_region) return chunk;
    KIWI_OBS_INC(obs_, locate_restarts);
  }
}

template <typename Layout>
void KiWiMapT<Layout>::Put(KeyView key, ValueView value) {
  KIWI_ASSERT(!Layout::IsTombstone(value), "value reserved for tombstones");
  if constexpr (Layout::kHasArena) {
    KIWI_ASSERT(Layout::EntryArenaBytes(key, value) <= max_entry_bytes_,
                "entry exceeds max_entry_bytes");
  }
  KIWI_OBS_INC(obs_, puts);
  KIWI_OBS_SAMPLED_TIMER(obs_, obs::Latency::kPut, timer);
  PutImpl(key, value);
}

template <typename Layout>
void KiWiMapT<Layout>::Remove(KeyView key) {
  // Deletion is a put of the tombstone (paper: "a put of the ⊥ value
  // removes the pair").  The tombstone flows through the same protocol and
  // is filtered on the read side; rebalance compacts it away.  Latencies
  // land in the put histogram (a remove IS a put).
  if constexpr (Layout::kHasArena) {
    KIWI_ASSERT(Layout::KeyArenaBytes(key) <= max_entry_bytes_,
                "key exceeds max_entry_bytes");
  }
  KIWI_OBS_INC(obs_, removes);
  KIWI_OBS_SAMPLED_TIMER(obs_, obs::Latency::kPut, timer);
  PutImpl(key, Layout::TombstoneValue());
}

template <typename Layout>
void KiWiMapT<Layout>::PutImpl(KeyView key, ValueView value) {
  KIWI_ASSERT(Layout::IsUserKey(key), "key below the user key domain");
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  const bool traced = KIWI_TRACE_SAMPLED(kPutOp, Layout::TraceKey(key),
                                         Layout::TraceValue(value));
  const Item entry{key, kNoVersion, 0, value};

  while (true) {
    reclaim::EbrGuard guard(ebr_);
    Chunk* chunk = LocateChunk(key);
    KIWI_ASSERT(chunk->status.load(std::memory_order_acquire) !=
                    Chunk::Status::kSentinel,
                "user key resolved to the sentinel chunk");
    const auto restart = [&] {
      KIWI_OBS_INC(obs_, put_restarts);
      KIWI_TRACE(kPutRestart, Layout::TraceKey(key),
                 reinterpret_cast<std::uintptr_t>(chunk));
    };

    // -- phase 0: maintenance check (Algorithm 3), before allocating so
    //    that infants never fill up.  A rebalanced put restarts (§6.1).
    const Trigger trigger = CheckRebalance(chunk, key, value);
    if (trigger != Trigger::kNone) {
      if (trigger == Trigger::kRebalance) Rebalance(chunk, {});
      restart();
      continue;
    }

    // -- phase 1: allocate a value slot and a cell (F&A/F&I give every
    //    concurrent put distinct indices), plus — for byte layouts — the
    //    entry's arena bytes.  Any overflow routes to rebalance, whose
    //    build-copy compacts dead reservations away.
    const std::uint32_t j =
        chunk->v_counter.fetch_add(1, std::memory_order_seq_cst);
    const std::uint32_t i =
        chunk->k_counter.fetch_add(1, std::memory_order_seq_cst);
    bool overflow = j >= chunk->capacity || i > chunk->capacity;
    std::uint32_t key_off = 0;
    if constexpr (Layout::kHasArena) {
      if (!overflow) {
        const std::uint32_t need = static_cast<std::uint32_t>(
            Layout::EntryArenaBytes(key, value));
        overflow = !chunk->ClaimArena(need, &key_off);
      }
    }
    if (overflow) {
      KIWI_OBS_INC(obs_, cell_alloc_overflows);
      Rebalance(chunk, {});
      restart();
      continue;
    }

    // -- phases 2-3: publish, version, link.  False means the chunk froze
    //    after phase 0: help its rebalance along, then restart.
    std::int32_t hint = Chunk::kNullIdx;
    if (InstallEntry(chunk, slot, i, j, key_off, entry, &hint, traced)) {
      return;
    }
    Rebalance(chunk, {});
    restart();
  }
}

template <typename Layout>
bool KiWiMapT<Layout>::InstallEntry(Chunk* chunk, std::size_t slot,
                                    std::uint32_t i, std::uint32_t j,
                                    std::uint32_t key_off, const Item& entry,
                                    std::int32_t* hint, bool traced) {
  const KeyView key = entry.key;
  const ValueView value = entry.value;
  typename Chunk::Cell& cell = chunk->k[i];
  if constexpr (Layout::kHasArena) {
    // Copy the bytes before the PPA publish below: its seq_cst CAS is the
    // release point that makes them visible to helpers and readers.
    std::memcpy(chunk->a + key_off, key.data(), key.size());
    const std::uint32_t val_off =
        key_off + static_cast<std::uint32_t>(key.size());
    if (Layout::IsTombstone(value)) {
      chunk->v[j] = typename Layout::StoredValue{0, Layout::kTombstoneLen};
    } else {
      std::memcpy(chunk->a + val_off, value.data(), value.size());
      chunk->v[j] = typename Layout::StoredValue{
          val_off, static_cast<std::uint32_t>(value.size())};
    }
    cell.key = typename Layout::CellKey{
        Layout::MakePrefix(key), key_off,
        static_cast<std::uint32_t>(key.size())};
  } else {
    chunk->v[j] = value;
    cell.key = key;
  }
  cell.version = kNoVersion;
  cell.val_ptr.store(static_cast<std::int32_t>(j), std::memory_order_relaxed);
  cell.next.store(Chunk::kNullIdx, std::memory_order_relaxed);

  // Re-read the status after this thread's last idle store to the slot.
  // FreezePpa freezes only unversioned words, so a freeze that found the
  // slot holding this thread's previous entry in this chunk left it
  // unfrozen; once that entry stored idle, a publish from idle would
  // succeed in the frozen chunk and link after the rebalance harvested it
  // (a lost update).  Seq_cst orders this load against the freezer's status
  // store: either we see kFrozen here, or FreezePpa reads the slot after
  // our last idle store and the publish CAS below races it as usual.
  if (chunk->status.load(std::memory_order_seq_cst) ==
      Chunk::Status::kFrozen) {
    return false;
  }

  // Publish in the PPA, then acquire a version.  The publish is a CAS from
  // the idle word so it fails if the chunk froze meanwhile (paper line 14).
  std::uint64_t expected = Chunk::kPpaIdle;
  if (!chunk->ppa[slot].compare_exchange_strong(
          expected, Chunk::PackPpa(Chunk::kPpaVerBottom, i),
          std::memory_order_seq_cst)) {
    KIWI_OBS_INC(obs_, ppa_publish_fails);
    return false;
  }
  if (traced) KIWI_TRACE(kPutPpaPublish, Layout::TraceKey(key), i);
  TestHooks::Run(TestHooks::put_before_version_cas);
  const Version gv = gv_.Load();
  std::uint64_t published = Chunk::PackPpa(Chunk::kPpaVerBottom, i);
  const bool own_cas = chunk->ppa[slot].compare_exchange_strong(
      published, Chunk::PackPpa(gv, i), std::memory_order_seq_cst);
  // Whether our CAS, a helper's, or the freezer won, the entry is
  // authoritative (paper line 16).  A frozen entry stays frozen: the chunk
  // is dead and the caller retries elsewhere.
  const Version version =
      Chunk::PpaVer(chunk->ppa[slot].load(std::memory_order_seq_cst));
  if (version == Chunk::kPpaVerFrozen) return false;
  if (!own_cas) {
    KIWI_OBS_INC(obs_, puts_helped);  // a scan or get installed our version
    KIWI_TRACE(kPutHelped, Layout::TraceKey(key), version);
  }
  cell.version = version;

  // Link the cell into the intra-chunk list (paper 17-25).
  while (true) {
    std::int32_t pred;
    std::int32_t succ;
    const std::int32_t existing =
        chunk->FindCellFrom(*hint, key, version, &pred, &succ);
    if (existing == Chunk::kNullIdx) {
      cell.next.store(succ, std::memory_order_relaxed);
      std::int32_t expected_succ = succ;
      if (chunk->k[pred].next.compare_exchange_strong(
              expected_succ, static_cast<std::int32_t>(i),
              std::memory_order_seq_cst)) {
        *hint = pred;
        break;
      }
      KIWI_OBS_INC(obs_, put_link_retries);
      continue;  // list changed under us; re-find the insertion point
    }
    // Same {key, version} already linked: the larger value location wins
    // (it fetched-and-added later).
    const std::int32_t current =
        chunk->k[existing].val_ptr.load(std::memory_order_acquire);
    if (current >= static_cast<std::int32_t>(j)) {
      *hint = pred;
      break;  // we lost
    }
    std::int32_t expected_ptr = current;
    chunk->k[existing].val_ptr.compare_exchange_strong(
        expected_ptr, static_cast<std::int32_t>(j),
        std::memory_order_seq_cst);
  }

  chunk->ppa[slot].store(Chunk::kPpaIdle, std::memory_order_seq_cst);
  return true;
}

template <typename Layout>
void KiWiMapT<Layout>::PutBatch(std::span<const Entry> entries) {
  if (entries.empty()) return;
  KIWI_OBS_INC(obs_, put_batches);
  KIWI_OBS_ADD(obs_, batch_entries, entries.size());

  // Normalize the batch: sort by key (stable, so equal keys keep their
  // submission order), then keep only the last occurrence of each key —
  // the state the equivalent sequence of Puts would leave behind.  The
  // surviving entries are carried as {key, value} view Items so the run
  // paths below never copy the owned strings of a byte batch.
  std::vector<Entry> sorted(entries.begin(), entries.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry& a, const Entry& b) {
                     return Layout::KeyLess(Layout::ViewKey(a.first),
                                            Layout::ViewKey(b.first));
                   });
  std::vector<Item> batch;
  batch.reserve(sorted.size());
  for (std::size_t r = 0; r < sorted.size(); ++r) {
    if (r + 1 < sorted.size() &&
        Layout::KeyEq(Layout::ViewKey(sorted[r + 1].first),
                      Layout::ViewKey(sorted[r].first))) {
      continue;  // superseded by a later write to the same key
    }
    const KeyView key = Layout::ViewKey(sorted[r].first);
    const ValueView value = Layout::ViewValue(sorted[r].second);
    KIWI_ASSERT(Layout::IsUserKey(key), "key below the user key domain");
    KIWI_ASSERT(!Layout::IsTombstone(value), "value reserved for tombstones");
    if constexpr (Layout::kHasArena) {
      KIWI_ASSERT(Layout::EntryArenaBytes(key, value) <= max_entry_bytes_,
                  "entry exceeds max_entry_bytes");
    }
    batch.push_back(Item{key, kNoVersion, 0, value});
  }
  KIWI_TRACE(kBatchStart, entries.size(), batch.size());

  const std::size_t slot = ThreadRegistry::CurrentSlot();
  const std::uint32_t bulk_min = policy_.BulkRunThreshold();
  std::size_t done = 0;
  while (done < batch.size()) {
    reclaim::EbrGuard guard(ebr_);
    Chunk* chunk = LocateChunk(batch[done].key);
    KIWI_ASSERT(chunk->status.load(std::memory_order_acquire) !=
                    Chunk::Status::kSentinel,
                "user key resolved to the sentinel chunk");
    const Trigger trigger =
        CheckRebalance(chunk, batch[done].key, batch[done].value);
    if (trigger == Trigger::kInfant) continue;

    // The run this chunk covers: keys below the successor's minKey.  The
    // bound stays valid even if the successor is concurrently replaced —
    // replacement heads inherit their sector's minKey.
    Chunk* succ = chunk->Next();
    std::size_t run_end = batch.size();
    if (succ != nullptr) {
      run_end = done + 1;
      while (run_end < batch.size() &&
             Layout::KeyLess(batch[run_end].key, succ->MinKey())) {
        ++run_end;
      }
    }
    const std::span<const Item> run(batch.data() + done, run_end - done);

    if (trigger == Trigger::kRebalance || run.size() >= bulk_min) {
      // Bulk path: carry the run through the rebalance build, seeding the
      // replacement chunks' sorted prefixes straight from the batch — no
      // per-key PPA round trips.  0 means another thread's section won
      // consensus; re-locate and retry (lock-free: each loss implies a
      // competing splice completed).
      const std::size_t installed = Rebalance(chunk, run);
      if (installed > 0) {
        KIWI_OBS_ADD(obs_, batch_bulk_entries, installed);
        KIWI_TRACE(kBatchBulk, Layout::TraceKey(run[0].key), installed);
        done += installed;
      } else {
        KIWI_OBS_INC(obs_, put_restarts);
        KIWI_TRACE(kPutRestart, Layout::TraceKey(batch[done].key),
                   reinterpret_cast<std::uintptr_t>(chunk));
      }
      continue;
    }

    // Short run: Put's install path per key, with the two index claims
    // batched and the insertion point carried between keys.
    const std::size_t installed = PutRunPerOp(chunk, run, slot);
    if (installed > 0) {
      KIWI_TRACE(kBatchRun, Layout::TraceKey(run[0].key), installed);
      done += installed;
    }
    // installed < run.size(): the chunk filled or froze mid-run; the next
    // iteration re-locates the remainder and takes the rebalance path.
  }
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::PutRunPerOp(Chunk* chunk,
                                          std::span<const Item> run,
                                          std::size_t slot) {
  // Claim cells and value slots for as much of the run as plausibly fits —
  // two fetch-adds instead of two per key.  The counters can still race
  // past capacity (other writers claim concurrently), so the post-claim
  // bounds below are authoritative.  Claimed-but-unused cells are benign:
  // never published, never linked; AllocatedCells is documented as an
  // upper bound on live entries.
  const std::uint32_t cap = chunk->capacity;
  const std::uint32_t v_seen =
      chunk->v_counter.load(std::memory_order_acquire);
  std::uint32_t want = static_cast<std::uint32_t>(std::min<std::size_t>(
      run.size(), v_seen < cap ? cap - v_seen : 0));
  if (want == 0) return 0;

  // Byte layouts additionally claim one contiguous arena block for the
  // entries about to be installed (prefix sums in `offs`), shrinking the
  // claim to what the arena can still hold.  A racing claim that defeats
  // ours is routed back to the caller, which re-dispatches via rebalance.
  [[maybe_unused]] std::uint32_t arena_base = 0;
  [[maybe_unused]] std::vector<std::uint32_t> offs;
  if constexpr (Layout::kHasArena) {
    const std::uint32_t arena_cap = chunk->arena_capacity;
    const std::uint32_t arena_seen =
        chunk->arena_used.load(std::memory_order_acquire);
    const std::uint32_t avail =
        arena_seen < arena_cap ? arena_cap - arena_seen : 0;
    offs.reserve(want + 1);
    offs.push_back(0);
    std::uint32_t total = 0;
    std::uint32_t fits = 0;
    while (fits < want) {
      const std::uint32_t need = static_cast<std::uint32_t>(
          Layout::EntryArenaBytes(run[fits].key, run[fits].value));
      if (total + need > avail) break;
      total += need;
      offs.push_back(total);
      ++fits;
    }
    want = fits;
    if (want == 0 || !chunk->ClaimArena(total, &arena_base)) return 0;
  }

  const std::uint32_t j_base =
      chunk->v_counter.fetch_add(want, std::memory_order_seq_cst);
  const std::uint32_t i_base =
      chunk->k_counter.fetch_add(want, std::memory_order_seq_cst);
  const std::uint32_t usable_v =
      j_base < cap ? std::min(want, cap - j_base) : 0;
  const std::uint32_t usable_k =
      i_base <= cap ? std::min(want, cap - i_base + 1) : 0;
  const std::uint32_t n = std::min(usable_v, usable_k);

  // Keys ascend within the run, so each key's insertion point is at or
  // after the previous one's predecessor — thread it through as the next
  // list search's starting point.  A frozen chunk stops the run: entries
  // [t, n) are not installed and the caller re-dispatches them.
  std::int32_t hint = Chunk::kNullIdx;
  for (std::uint32_t t = 0; t < n; ++t) {
    std::uint32_t key_off = 0;
    if constexpr (Layout::kHasArena) key_off = arena_base + offs[t];
    if (!InstallEntry(chunk, slot, i_base + t, j_base + t, key_off, run[t],
                      &hint, /*traced=*/false)) {
      return t;
    }
  }
  return n;
}

template <typename Layout>
std::optional<typename Layout::OwnedValue> KiWiMapT<Layout>::Get(KeyView key) {
  KIWI_ASSERT(Layout::IsUserKey(key), "key below the user key domain");
  KIWI_OBS_INC(obs_, gets);
  KIWI_OBS_SAMPLED_TIMER(obs_, obs::Latency::kGet, timer);
  reclaim::EbrGuard guard(ebr_);
  Chunk* chunk = LocateChunk(key);
  // Help any pending put to this key acquire a version: ignoring it could
  // order this get inconsistently with a later scan (paper Figure 2).  The
  // fuzz mutant kSkipGetHelp re-breaks exactly this line.
  if (!TestHooks::MutantEnabled(TestHooks::kSkipGetHelp)) [[likely]] {
    chunk->HelpPendingPuts(gv_, key, key);
  }
  TestHooks::Run(TestHooks::get_after_help);
  const typename Chunk::LatestResult latest =
      chunk->FindLatest(key, kMaxReadVersion);
  const bool hit = latest.found && !latest.is_tombstone;
  (void)KIWI_TRACE_SAMPLED(kGetOp, Layout::TraceKey(key), hit);
  if (!hit) return std::nullopt;
  KIWI_OBS_INC(obs_, get_hits);
  return Layout::OwnValue(latest.value);
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::Scan(
    KeyView from_key, KeyView to_key,
    const std::function<void(KeyView, ValueView)>& yield) {
  return ScanImpl(from_key, &to_key, yield);
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::ScanFrom(
    KeyView from_key, const std::function<void(KeyView, ValueView)>& yield) {
  return ScanImpl(from_key, nullptr, yield);
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::ScanImpl(
    KeyView from_key, const KeyView* to_key,
    const std::function<void(KeyView, ValueView)>& yield) {
  if (Layout::KeyLess(from_key, Layout::MinUserKey())) {
    from_key = Layout::MinUserKey();
  }
  if (to_key != nullptr && Layout::KeyLess(*to_key, from_key)) return 0;
  KIWI_OBS_INC(obs_, scans);
  KIWI_OBS_SAMPLED_TIMER(obs_, obs::Latency::kScan, timer);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  PsaEntry& entry = psa_.Slot(slot);
  const bool traced = KIWI_TRACE_SAMPLED(
      kScanBegin, Layout::TraceKey(from_key),
      to_key != nullptr ? Layout::TraceKey(*to_key) : ~std::uint64_t{0});

  // -- 1. acquire a read point, synchronizing with rebalance via the PSA
  //    (paper lines 32-35): publish intent, F&I GV, install (or adopt the
  //    version a helping rebalance installed).  The publish-before-F&I
  //    order is load-bearing (fuzz mutant kSkipScanPublish re-breaks it):
  //    a rebalance that cannot see this scan's entry may compact away
  //    versions at or below its read point.  Byte layouts publish the
  //    range as normalized prefixes — conservative, never lossy.
  std::uint64_t seq = 0;
  Version read_point;
  const bool published =
      !TestHooks::MutantEnabled(TestHooks::kSkipScanPublish);
  if (published) [[likely]] {
    seq = entry.PublishPending(Layout::PsaLow(from_key),
                               to_key != nullptr ? Layout::PsaHigh(*to_key)
                                                 : Layout::PsaMax());
    TestHooks::Run(TestHooks::scan_before_version_install);
    const Version fetched = gv_.FetchIncrement();
    read_point = entry.InstallOwn(seq, fetched);
    if (traced) KIWI_TRACE(kScanVersion, read_point, read_point != fetched);
  } else {
    read_point = gv_.FetchIncrement();  // mutant: invisible to rebalance
    // Fire the same site so the fuzzer can stall the mutant scan in its
    // vulnerable window (read point taken, chunks not yet read).
    TestHooks::Run(TestHooks::scan_before_version_install);
  }

  // -- 2. read every key in range at `read_point`.
  std::size_t emitted = 0;
  {
    reclaim::EbrGuard guard(ebr_);
    Chunk* chunk = LocateChunk(from_key);
    while (chunk != nullptr &&
           (to_key == nullptr || Layout::KeyLeq(chunk->MinKey(), *to_key))) {
      if (to_key != nullptr) {
        chunk->HelpPendingPuts(gv_, from_key, *to_key);
      } else {
        chunk->HelpAllPendingPuts(gv_);
      }
      EmitChunkRange(chunk, from_key, to_key, read_point, yield, &emitted);
      chunk = chunk->Next();
    }
  }

  if (published) [[likely]] entry.Clear(seq);
  KIWI_OBS_ADD(obs_, scan_keys, emitted);
  if (traced) KIWI_TRACE(kScanEnd, emitted, 0);
  return emitted;
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::Scan(KeyView from_key, KeyView to_key,
                                   std::vector<Entry>& out) {
  out.clear();
  return Scan(from_key, to_key, [&out](KeyView k, ValueView v) {
    out.emplace_back(Layout::OwnKey(k), Layout::OwnValue(v));
  });
}

template <typename Layout>
void KiWiMapT<Layout>::EmitChunkRange(
    Chunk* chunk, KeyView from, const KeyView* to, Version read_point,
    const std::function<void(KeyView, ValueView)>& yield,
    std::size_t* emitted) {
  // Pending puts first (PPA-before-list, see Chunk::FindLatest), reduced to
  // the best candidate per key.
  std::vector<Item> pending;
  if (to != nullptr) {
    chunk->CollectPpaItems(pending, from, *to, read_point);
  } else {
    chunk->CollectAllPpaItems(pending, read_point);
    std::erase_if(pending, [&from](const Item& item) {
      return Layout::KeyLess(item.key, from);
    });
  }
  std::sort(pending.begin(), pending.end(), Chunk::ItemBefore);
  std::size_t pi = 0;
  const auto pending_best = [&pending](std::size_t at) {
    return pending[at];  // first item of a key run is the best (sort order)
  };
  const auto skip_pending_run = [&pending](std::size_t at) {
    const KeyView key = pending[at].key;
    while (at < pending.size() && Layout::KeyEq(pending[at].key, key)) ++at;
    return at;
  };
  const auto emit = [&](KeyView key, ValueView value) {
    if (Layout::IsTombstone(value)) return;  // deleted at this read point
    yield(key, value);
    ++*emitted;
  };

  // Walk the in-chunk list, merging with the pending stream by key.
  const auto from_probe = Layout::MakeProbe(from);
  typename Layout::Probe to_probe{};
  if (to != nullptr) to_probe = Layout::MakeProbe(*to);
  std::int32_t curr =
      chunk->k[chunk->BatchedPredecessorProbe(from_probe)].next.load(
          std::memory_order_acquire);
  while (curr != Chunk::kNullIdx) {
    const typename Chunk::Cell& cell = chunk->k[curr];
    if (to != nullptr &&
        Layout::CompareCell(chunk->a, cell.key, to_probe) > 0) {
      break;
    }
    if (Layout::CompareCell(chunk->a, cell.key, from_probe) < 0) {
      curr = cell.next.load(std::memory_order_acquire);
      continue;
    }
    const KeyView key = Layout::CellKeyView(chunk->a, cell.key);
    // Flush pending-only keys ordered before this one.
    while (pi < pending.size() && Layout::KeyLess(pending[pi].key, key)) {
      emit(pending[pi].key, pending_best(pi).value);
      pi = skip_pending_run(pi);
    }
    // List candidate: first version in this key's (descending) run at or
    // below the read point.
    bool have_list = false;
    Item list_item{key, kNoVersion, Chunk::kNullIdx, ValueView{}};
    const auto key_probe = Layout::MakeProbe(key);
    std::int32_t cursor = curr;
    while (cursor != Chunk::kNullIdx) {
      const typename Chunk::Cell& c = chunk->k[cursor];
      if (Layout::CompareCell(chunk->a, c.key, key_probe) != 0) break;
      if (!have_list && c.version <= read_point) {
        const std::int32_t vp = c.val_ptr.load(std::memory_order_acquire);
        list_item = Item{key, c.version, vp, chunk->LoadValue(vp)};
        have_list = true;
      }
      cursor = c.next.load(std::memory_order_acquire);
    }
    curr = cursor;  // advanced past the whole key run
    // Combine with a same-key pending candidate, if any.
    if (pi < pending.size() && Layout::KeyEq(pending[pi].key, key)) {
      const Item p = pending_best(pi);
      pi = skip_pending_run(pi);
      if (!have_list || Chunk::ItemBefore(p, list_item)) {
        list_item = p;
        have_list = true;
      }
    }
    if (have_list) emit(key, list_item.value);
  }
  // Pending-only keys after the last list key.
  while (pi < pending.size() &&
         (to == nullptr || Layout::KeyLeq(pending[pi].key, *to))) {
    emit(pending[pi].key, pending_best(pi).value);
    pi = skip_pending_run(pi);
  }
}

template <typename Layout>
KiWiMapT<Layout>::Snapshot::Snapshot(KiWiMapT& map)
    : map_(map), slot_(ThreadRegistry::CurrentSlot()) {
  // Identical to a scan's read-point acquisition (Algorithm 2 lines 32-35),
  // over the full key range — the entry stays pinned until destruction so
  // rebalance compaction preserves every version this view may read.
  // Snapshots use their own PSA arrays so concurrent scans by this thread
  // cannot displace the pin; only this thread touches its sub-slots.
  sub_slot_ = kMaxSnapshotsPerThread;
  for (std::size_t i = 0; i < kMaxSnapshotsPerThread; ++i) {
    if (map_.snapshot_psa_[i].Slot(slot_).Load().ver == kNoVersion) {
      sub_slot_ = i;
      break;
    }
  }
  KIWI_ASSERT(sub_slot_ < kMaxSnapshotsPerThread,
              "a thread may hold at most kMaxSnapshotsPerThread open "
              "Snapshots per map");
  PsaEntry& entry = map_.snapshot_psa_[sub_slot_].Slot(slot_);
  seq_ = entry.PublishPending(Layout::PsaMin(), Layout::PsaMax());
  const Version fetched = map_.gv_.FetchIncrement();
  read_point_ = entry.InstallOwn(seq_, fetched);
  KIWI_OBS_INC(map_.obs_, snapshots);
  KIWI_TRACE(kSnapshotOpen, read_point_, 0);
}

template <typename Layout>
KiWiMapT<Layout>::Snapshot::~Snapshot() {
  KIWI_ASSERT(ThreadRegistry::CurrentSlot() == slot_,
              "snapshot released by a different thread");
  map_.snapshot_psa_[sub_slot_].Slot(slot_).Clear(seq_);
}

template <typename Layout>
std::optional<typename Layout::OwnedValue> KiWiMapT<Layout>::Snapshot::Get(
    KeyView key) {
  KIWI_ASSERT(Layout::IsUserKey(key), "key below the user key domain");
  reclaim::EbrGuard guard(map_.ebr_);
  Chunk* chunk = map_.LocateChunk(key);
  // Helping is still required at a pinned read point: a put that loaded GV
  // before our fetch-and-increment could otherwise self-assign a version at
  // or below read_point_ after we looked.
  chunk->HelpPendingPuts(map_.gv_, key, key);
  const typename Chunk::LatestResult latest =
      chunk->FindLatest(key, read_point_);
  if (!latest.found || latest.is_tombstone) return std::nullopt;
  return Layout::OwnValue(latest.value);
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::Snapshot::Scan(
    KeyView from_key, KeyView to_key,
    const std::function<void(KeyView, ValueView)>& yield) {
  if (Layout::KeyLess(from_key, Layout::MinUserKey())) {
    from_key = Layout::MinUserKey();
  }
  if (Layout::KeyLess(to_key, from_key)) return 0;
  std::size_t emitted = 0;
  reclaim::EbrGuard guard(map_.ebr_);
  Chunk* chunk = map_.LocateChunk(from_key);
  while (chunk != nullptr && Layout::KeyLeq(chunk->MinKey(), to_key)) {
    chunk->HelpPendingPuts(map_.gv_, from_key, to_key);
    map_.EmitChunkRange(chunk, from_key, &to_key, read_point_, yield,
                        &emitted);
    chunk = chunk->Next();
  }
  return emitted;
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::Snapshot::Scan(KeyView from_key, KeyView to_key,
                                             std::vector<Entry>& out) {
  out.clear();
  return Scan(from_key, to_key, [&out](KeyView k, ValueView v) {
    out.emplace_back(Layout::OwnKey(k), Layout::OwnValue(v));
  });
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::Size() {
  std::size_t count = 0;
  ScanFrom(Layout::MinUserKey(), [&count](KeyView, ValueView) { ++count; });
  return count;
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::FixedFootprint() const {
  return index_.MemoryFootprint() + sizeof(*this) +
         sentinel_->MemoryFootprint();
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::MemoryFootprint() {
  reclaim::EbrGuard guard(ebr_);
  std::size_t bytes = FixedFootprint();
  for (Chunk* c = sentinel_->Next(); c != nullptr; c = c->Next()) {
    bytes += c->MemoryFootprint();
  }
  return bytes;
}

template <typename Layout>
void KiWiMapT<Layout>::CompactAll() {
  // Quiescent helper: rebalance every data chunk once, forcing version
  // compaction and structure cleanup.
  std::vector<OwnedKey> min_keys;
  {
    reclaim::EbrGuard guard(ebr_);
    for (Chunk* c = sentinel_->Next(); c != nullptr; c = c->Next()) {
      min_keys.push_back(Layout::OwnKey(c->MinKey()));
    }
  }
  for (const OwnedKey& key : min_keys) {
    reclaim::EbrGuard guard(ebr_);
    Chunk* c = LocateChunk(Layout::ViewKey(key));
    if (c->status.load(std::memory_order_acquire) == Chunk::Status::kNormal) {
      Rebalance(c, {});
    }
  }
}

template <typename Layout>
void KiWiMapT<Layout>::CheckInvariants() {
  reclaim::EbrGuard guard(ebr_);
  KIWI_ASSERT(sentinel_->status.load() == Chunk::Status::kSentinel,
              "head must be the sentinel");
  KeyView prev_min = Layout::SentinelMinKey();
  for (Chunk* c = sentinel_->Next(); c != nullptr; c = c->Next()) {
    KIWI_ASSERT(Layout::KeyLess(prev_min, c->MinKey()) ||
                    c == sentinel_->Next(),
                "chunk minKeys must be strictly increasing");
    KIWI_ASSERT(!Layout::KeyLess(c->MinKey(), Layout::MinUserKey()),
                "data chunk below user domain");
    prev_min = c->MinKey();
    const Chunk* succ = c->Next();
    // In-chunk list: sorted by (key asc, version desc), all in range.
    std::int32_t curr = c->k[0].next.load(std::memory_order_acquire);
    KeyView last_key{};
    Version last_ver = 0;
    bool first = true;
    while (curr != Chunk::kNullIdx) {
      const typename Chunk::Cell& cell = c->k[curr];
      const KeyView cell_key = Layout::CellKeyView(c->a, cell.key);
      KIWI_ASSERT(!Layout::KeyLess(cell_key, c->MinKey()),
                  "cell below chunk range");
      KIWI_ASSERT(succ == nullptr || Layout::KeyLeq(cell_key, succ->MinKey()),
                  "cell above chunk range");
      if (!first) {
        KIWI_ASSERT(Layout::KeyLess(last_key, cell_key) ||
                        (Layout::KeyEq(cell_key, last_key) &&
                         cell.version < last_ver),
                    "in-chunk list out of order");
      }
      first = false;
      last_key = cell_key;
      last_ver = cell.version;
      curr = cell.next.load(std::memory_order_acquire);
    }
  }
}

template <typename Layout>
Xoshiro256& KiWiMapT<Layout>::ThreadRng() {
  thread_local Xoshiro256 rng(0x9e3779b97f4a7c15ULL ^
                              (ThreadRegistry::CurrentSlot() *
                               0x100000001b3ULL));
  return rng;
}

}  // namespace kiwi::core
