// KiWiMapT client operations: put / get / scan (paper Algorithm 2) plus
// construction, diagnostics and the scan merge logic.  Rebalancing lives in
// rebalance_impl.h.  Included by kiwi_map.h only — the template definitions
// live here so both layout instantiations (explicit, in kiwi_map.cpp) come
// from one source of truth.
#pragma once

#include <algorithm>
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
                  config.chunk_capacity < PendingPuts::kNoCell,
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
  if (sorted_entries.empty()) return;  // keep the initial empty chunk
  std::vector<Item> items;
  items.reserve(sorted_entries.size());
  for (const auto& [okey, ovalue] : sorted_entries) {
    const KeyView key = Layout::ViewKey(okey);
    const ValueView value = Layout::ViewValue(ovalue);
    CheckEntry(key, value);
    KIWI_ASSERT(!Layout::IsTombstone(value), "bulk-load value is reserved");
    KIWI_ASSERT(items.empty() || Layout::KeyLess(items.back().key, key),
                "bulk-load keys must be strictly ascending");
    items.push_back(Item{key, /*version=*/1, 0, value});
  }
  // Carve exactly as a rebalance build would, swap the chain in for the
  // initial empty chunk (single-threaded ctor) and index it eagerly.
  const BuiltSection section = CarveChunks(items, Layout::MinUserKey(),
                                           nullptr, Chunk::Status::kNormal);
  Chunk* initial = sentinel_->Next();
  sentinel_->next.Store(MarkedPtr<Chunk>(section.first, false));
  index_.DeleteConditional(initial->MinKey(), initial);
  Chunk::Destroy(initial);
  for (Chunk* c = section.first; c != nullptr; c = c->Next()) {
    index_.PutUnconditional(c->MinKey(), c);
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
void KiWiMapT<Layout>::CheckEntry(KeyView key,
                                  [[maybe_unused]] ValueView value) const {
  KIWI_ASSERT(Layout::IsUserKey(key), "key below the user key domain");
  if constexpr (Layout::kHasArena) {
    KIWI_ASSERT(Layout::EntryArenaBytes(key, value) <= max_entry_bytes_,
                "entry exceeds max_entry_bytes");
  }
}

template <typename Layout>
void KiWiMapT<Layout>::Put(KeyView key, ValueView value) {
  KIWI_ASSERT(!Layout::IsTombstone(value), "value reserved for tombstones");
  KIWI_OBS_INC(obs_, puts);
  KIWI_OBS_SAMPLED_TIMER(obs_, obs::Latency::kPut, timer);
  PutImpl(key, value, KIWI_OBS_SAMPLED(timer));
}

template <typename Layout>
void KiWiMapT<Layout>::Remove(KeyView key) {
  // Deletion is a put of the tombstone (paper: "a put of the ⊥ value
  // removes the pair").  The tombstone flows through the same protocol and
  // is filtered on the read side; rebalance compacts it away.  Latencies
  // land in the put histogram (a remove IS a put).
  KIWI_OBS_INC(obs_, removes);
  KIWI_OBS_SAMPLED_TIMER(obs_, obs::Latency::kPut, timer);
  PutImpl(key, Layout::TombstoneValue(), KIWI_OBS_SAMPLED(timer));
}

template <typename Layout>
void KiWiMapT<Layout>::PutImpl(KeyView key, ValueView value, bool traced) {
  CheckEntry(key, value);
  if (traced) {
    KIWI_TRACE(kPutOp, Layout::TraceKey(key), Layout::TraceValue(value));
  }
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  const Item entry{key, kNoVersion, 0, value};

  while (true) {
    reclaim::EbrGuard guard(ebr_);
    Chunk* chunk = LocateChunk(key);
    // The maintenance check (Algorithm 3) runs before the claim so that
    // infants never fill up.  A put whose chunk is frozen or due, or whose
    // claim came up short or met a freeze, helps the rebalance and
    // restarts (§6.1); it never rides one.
    const Trigger trigger = CheckRebalance(chunk);
    if (trigger == Trigger::kNone &&
        InstallRun(chunk, {&entry, 1}, slot, traced) == 1) {
      return;
    }
    if (trigger != Trigger::kInfant) Rebalance(chunk, {});
    KIWI_OBS_INC(obs_, put_restarts);
    KIWI_TRACE(kPutRestart, Layout::TraceKey(key),
               reinterpret_cast<std::uintptr_t>(chunk));
  }
}

template <typename Layout>
bool KiWiMapT<Layout>::InstallEntry(Chunk* chunk, std::size_t slot,
                                    std::uint32_t i, std::uint32_t j,
                                    std::uint32_t key_off, const Item& entry,
                                    std::int32_t* hint, bool traced) {
  const KeyView key = entry.key;
  typename Chunk::Cell& cell = chunk->k[i];
  // Fill the cell before the PPA publish below: its seq_cst CAS is the
  // release point that makes the entry visible to helpers and readers.
  chunk->FillCell(cell, j, key_off, key, entry.value);
  cell.version = kNoVersion;
  cell.val_ptr.store(static_cast<std::int32_t>(j), std::memory_order_relaxed);
  cell.next.store(Chunk::kNullIdx, std::memory_order_relaxed);

  // Re-read the status after this thread's last Clear of its slot.
  // PendingPuts::Freeze leaves versioned slots alone, so a freeze that met
  // this thread's previous entry here left the slot unfrozen, and a publish
  // from idle would succeed in the frozen chunk and link after the harvest
  // (a lost update).  Seq_cst orders this load against the freezer's status
  // store: either we see kFrozen, or Freeze reads the slot after our Clear.
  if (chunk->status.load(std::memory_order_seq_cst) ==
      Chunk::Status::kFrozen) {
    return false;
  }

  // Publish in the PPA, then acquire a version (paper lines 13-16).  A
  // frozen slot fails either step; the caller retries elsewhere.
  if (!chunk->ppa.Publish(slot, i)) {
    KIWI_OBS_INC(obs_, ppa_publish_fails);
    return false;
  }
  if (traced) KIWI_TRACE(kPutPpaPublish, Layout::TraceKey(key), i);
  TestHooks::Run(TestHooks::kPutBeforeVersionCas);
  bool helped = false;
  const Version version = chunk->ppa.TakeVersion(slot, i, gv_.Load(), &helped);
  if (version == kNoVersion) return false;
  if (helped) {
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

  chunk->ppa.Clear(slot);
  return true;
}

template <typename Layout>
void KiWiMapT<Layout>::PutBatch(std::span<const Entry> entries) {
  if (entries.empty()) return;
  KIWI_OBS_INC(obs_, put_batches);
  KIWI_OBS_ADD(obs_, batch_entries, entries.size());

  // Normalize the batch: sort views of the caller's entries by key (stable,
  // so equal keys keep their submission order), then keep only the last
  // occurrence of each key — the state the equivalent sequence of Puts
  // would leave behind.  The views live as long as this call, and both
  // install paths copy the bytes they keep.
  std::vector<Item> batch;
  batch.reserve(entries.size());
  for (const auto& [key, value] : entries) {
    batch.push_back(
        Item{Layout::ViewKey(key), kNoVersion, 0, Layout::ViewValue(value)});
  }
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Item& a, const Item& b) {
                     return Layout::KeyLess(a.key, b.key);
                   });
  std::size_t kept = 0;
  for (std::size_t r = 0; r < batch.size(); ++r) {
    if (r + 1 < batch.size() &&
        Layout::KeyEq(batch[r + 1].key, batch[r].key)) {
      continue;  // superseded by a later write to the same key
    }
    CheckEntry(batch[r].key, batch[r].value);
    KIWI_ASSERT(!Layout::IsTombstone(batch[r].value),
                "value reserved for tombstones");
    batch[kept++] = batch[r];
  }
  batch.resize(kept);
  KIWI_TRACE(kBatchStart, entries.size(), batch.size());

  const std::size_t slot = ThreadRegistry::CurrentSlot();
  const std::uint32_t bulk_min = policy_.BulkRunThreshold();
  std::size_t done = 0;
  while (done < batch.size()) {
    reclaim::EbrGuard guard(ebr_);
    Chunk* chunk = LocateChunk(batch[done].key);
    const Trigger trigger = CheckRebalance(chunk);
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

    if (trigger == Trigger::kNone && run.size() < bulk_min) {
      // Short run: Put's claim and install, with the two index claims
      // batched and the insertion point carried between keys.  A partial
      // run (the chunk filled or froze mid-run) re-locates the remainder.
      const std::size_t installed =
          InstallRun(chunk, run, slot, /*traced=*/false);
      if (installed > 0) {
        KIWI_TRACE(kBatchRun, Layout::TraceKey(run[0].key), installed);
        done += installed;
        continue;
      }
      // Nothing installed.  A frozen chunk is re-located (its replacement
      // may already be in); one out of room takes the bulk path now — an
      // arena too full for the run's first entry does not trip the policy,
      // so re-locating would spin.
      if (chunk->status.load(std::memory_order_acquire) ==
          Chunk::Status::kFrozen) {
        continue;
      }
    }

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
  }
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::InstallRun(Chunk* chunk,
                                         std::span<const Item> run,
                                         std::size_t slot, bool traced) {
  // Claim cells and value slots for as much of the run as plausibly fits —
  // two fetch-adds per run, not per key.  The counters can still race past
  // capacity (other writers claim concurrently), so the post-claim bounds
  // below are authoritative.  Claimed-but-unused cells are benign: never
  // published, never linked; AllocatedCells is documented as an upper
  // bound on live entries.
  const std::uint32_t cap = chunk->capacity;
  const std::uint32_t v_seen =
      chunk->v_counter.load(std::memory_order_acquire);
  std::uint32_t want = static_cast<std::uint32_t>(std::min<std::size_t>(
      run.size(), v_seen < cap ? cap - v_seen : 0));

  // Byte layouts additionally claim one contiguous arena block for the
  // entries about to be installed, shrinking the claim to what the arena
  // can still hold.  If a racing claim takes the bytes first, this run
  // claims nothing.
  std::uint32_t arena_off = 0;
  if constexpr (Layout::kHasArena) {
    const std::uint32_t avail = chunk->arena_capacity - chunk->ArenaUsed();
    std::uint32_t total = 0;
    std::uint32_t fits = 0;
    while (fits < want) {
      const std::uint32_t need = static_cast<std::uint32_t>(
          Layout::EntryArenaBytes(run[fits].key, run[fits].value));
      if (total + need > avail) break;
      total += need;
      ++fits;
    }
    want = fits;
    if (want > 0 && !chunk->ClaimArena(total, &arena_off)) want = 0;
  }
  if (want == 0) {
    KIWI_OBS_INC(obs_, cell_alloc_overflows);
    return 0;
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
  if (n < want) KIWI_OBS_INC(obs_, cell_alloc_overflows);

  // Keys ascend within the run, so each key's insertion point is at or
  // after the previous one's predecessor — thread it through as the next
  // list search's starting point.  A frozen chunk stops the run: entries
  // [t, n) are not installed and the caller re-dispatches them.
  std::int32_t hint = Chunk::kNullIdx;
  for (std::uint32_t t = 0; t < n; ++t) {
    if (!InstallEntry(chunk, slot, i_base + t, j_base + t, arena_off, run[t],
                      &hint, traced)) {
      return t;
    }
    arena_off += static_cast<std::uint32_t>(
        Layout::EntryArenaBytes(run[t].key, run[t].value));
  }
  return n;
}

template <typename Layout>
std::optional<typename Layout::OwnedValue> KiWiMapT<Layout>::Get(KeyView key) {
  KIWI_OBS_INC(obs_, gets);
  KIWI_OBS_SAMPLED_TIMER(obs_, obs::Latency::kGet, timer);
  std::optional<OwnedValue> value = ReadKey(key, kMaxReadVersion);
  if (KIWI_OBS_SAMPLED(timer)) {
    KIWI_TRACE(kGetOp, Layout::TraceKey(key), value.has_value());
  }
  if (value) KIWI_OBS_INC(obs_, get_hits);
  return value;
}

template <typename Layout>
std::optional<typename Layout::OwnedValue> KiWiMapT<Layout>::ReadKey(
    KeyView key, Version max_version) {
  KIWI_ASSERT(Layout::IsUserKey(key), "key below the user key domain");
  reclaim::EbrGuard guard(ebr_);
  Chunk* chunk = LocateChunk(key);
  // Help any pending put to this key acquire a version: ignoring it could
  // order this read inconsistently with a later scan (paper Figure 2), and
  // a put that loaded GV before a snapshot's F&I could self-assign a
  // version at or below its read point after we looked.  The fuzz mutant
  // kSkipGetHelp re-breaks exactly this line.
  if (!TestHooks::MutantEnabled(TestHooks::kSkipGetHelp)) [[likely]] {
    chunk->HelpPendingPuts(gv_, key, key);
  }
  TestHooks::Run(TestHooks::kGetAfterHelp);
  const typename Chunk::LatestResult latest =
      chunk->FindLatest(key, max_version);
  if (!latest.found || latest.is_tombstone) return std::nullopt;
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
  PsaEntry& entry = psa_.Slot(ThreadRegistry::CurrentSlot());
  const bool traced = KIWI_OBS_SAMPLED(timer);
  if (traced) {
    KIWI_TRACE(kScanBegin, Layout::TraceKey(from_key),
               to_key != nullptr ? Layout::TraceKey(*to_key)
                                 : ~std::uint64_t{0});
  }

  // -- 1. acquire a read point, synchronizing with rebalance via the PSA.
  //    Byte layouts publish the range as normalized prefixes —
  //    conservative, never lossy.  Fuzz mutant kSkipScanPublish skips the
  //    publication.
  ReadPin pin{};
  const bool published =
      !TestHooks::MutantEnabled(TestHooks::kSkipScanPublish);
  if (published) [[likely]] {
    pin = AcquireReadPoint(entry, Layout::PsaLow(from_key),
                           to_key != nullptr ? Layout::PsaHigh(*to_key)
                                             : Layout::PsaMax());
    if (traced) KIWI_TRACE(kScanVersion, pin.version, pin.helped);
  } else {
    pin.version = gv_.FetchIncrement();  // mutant: invisible to rebalance
    // Fire the same site so the fuzzer can stall the mutant scan in its
    // vulnerable window (read point taken, chunks not yet read).
    TestHooks::Run(TestHooks::kScanBeforeVersionInstall);
  }

  // -- 2. read every key in range at the read point.
  const std::size_t emitted = ReadRange(from_key, to_key, pin.version, yield);

  if (published) [[likely]] entry.Clear(pin.seq);
  KIWI_OBS_ADD(obs_, scan_keys, emitted);
  if (traced) KIWI_TRACE(kScanEnd, emitted, 0);
  return emitted;
}

template <typename Layout>
auto KiWiMapT<Layout>::AcquireReadPoint(PsaEntry& entry, PsaKey low,
                                        PsaKey high) -> ReadPin {
  const std::uint64_t seq = entry.PublishPending(low, high);
  TestHooks::Run(TestHooks::kScanBeforeVersionInstall);
  const Version fetched = gv_.FetchIncrement();
  const Version version = entry.InstallOwn(seq, fetched);
  return ReadPin{version, seq, version != fetched};
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::ReadRange(
    KeyView from_key, const KeyView* to_key, Version read_point,
    const std::function<void(KeyView, ValueView)>& yield) {
  std::size_t emitted = 0;
  reclaim::EbrGuard guard(ebr_);
  Chunk* chunk = LocateChunk(from_key);
  while (chunk != nullptr &&
         (to_key == nullptr || Layout::KeyLeq(chunk->MinKey(), *to_key))) {
    chunk->HelpPendingPuts(gv_, from_key, to_key);
    EmitChunkRange(chunk, from_key, to_key, read_point, yield, &emitted);
    chunk = chunk->Next();
  }
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
  chunk->CollectPpaItems(pending, from, to, read_point);
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

  // Walk the in-chunk list, merging with the pending stream by key.  The
  // list is sorted and a put links a cell only at its place, so the cells
  // below `from` are passed once, here (kPendingVersion tops every linked
  // version, so FindCellFrom stops at `from`'s first cell); in the loop each
  // key costs one compare against `to` and one that ends its version run.
  std::int32_t curr;
  chunk->FindCellFrom(Chunk::kNullIdx, from, kPendingVersion, nullptr, &curr);
  typename Layout::Probe to_probe{};
  if (to != nullptr) to_probe = Layout::MakeProbe(*to);
  while (curr != Chunk::kNullIdx) {
    const typename Chunk::Cell* cell = &chunk->k[curr];
    if (to != nullptr &&
        Layout::CompareCell(chunk->a, cell->key, to_probe) > 0) {
      break;
    }
    const KeyView key = Layout::CellKeyView(chunk->a, cell->key);
    // Flush pending-only keys ordered before this one.
    while (pi < pending.size() && Layout::KeyLess(pending[pi].key, key)) {
      emit(pending[pi].key, pending_best(pi).value);
      pi = skip_pending_run(pi);
    }
    // List candidate: first version in this key's (descending) run at or
    // below the read point.  The run opens at `cell`; it ends at the first
    // cell whose key differs, where the next iteration picks up.
    bool have_list = false;
    Item list_item{key, kNoVersion, Chunk::kNullIdx, ValueView{}};
    const auto key_probe = Layout::MakeProbe(key);
    while (true) {
      if (!have_list && cell->version <= read_point) {
        const std::int32_t vp = cell->val_ptr.load(std::memory_order_acquire);
        list_item = Item{key, cell->version, vp, chunk->LoadValue(vp)};
        have_list = true;
      }
      curr = cell->next.load(std::memory_order_acquire);
      if (curr == Chunk::kNullIdx) break;
      cell = &chunk->k[curr];
      if (Layout::CompareCell(chunk->a, cell->key, key_probe) != 0) break;
    }
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
    : map_(map), slot_(map.snapshot_slots_.Acquire()) {
  // A scan's read-point acquisition over the full key range, in an entry
  // this view owns: it stays pinned until destruction so rebalance
  // compaction preserves every version this view may read.  The claim and
  // its high-water bump precede the pending publish, so ComputeMinVersion's
  // GV-before-PSA argument covers the slot.
  KIWI_ASSERT(slot_ < kMaxSnapshots,
              "more than kMaxSnapshots open Snapshots per map");
  const ReadPin pin = map_.AcquireReadPoint(map_.snapshot_pins_.Slot(slot_),
                                            Layout::PsaMin(), Layout::PsaMax());
  read_point_ = pin.version;
  seq_ = pin.seq;
  KIWI_OBS_INC(map_.obs_, snapshots);
  KIWI_TRACE(kSnapshotOpen, read_point_, 0);
}

template <typename Layout>
KiWiMapT<Layout>::Snapshot::~Snapshot() {
  map_.snapshot_pins_.Slot(slot_).Clear(seq_);
  map_.snapshot_slots_.Release(slot_);
}

template <typename Layout>
std::optional<typename Layout::OwnedValue> KiWiMapT<Layout>::Snapshot::Get(
    KeyView key) {
  return map_.ReadKey(key, read_point_);
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::Snapshot::Scan(
    KeyView from_key, KeyView to_key,
    const std::function<void(KeyView, ValueView)>& yield) {
  if (Layout::KeyLess(from_key, Layout::MinUserKey())) {
    from_key = Layout::MinUserKey();
  }
  if (Layout::KeyLess(to_key, from_key)) return 0;
  return map_.ReadRange(from_key, &to_key, read_point_, yield);
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
      KIWI_ASSERT(succ == nullptr || Layout::KeyLess(cell_key, succ->MinKey()),
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
