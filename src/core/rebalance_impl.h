// KiWi rebalancing (paper §3.3, Algorithms 3-4): the seven idempotent stages
// that compact, split and merge chunks while puts, gets and scans run.
//
//   1. Engage     — consensus (via RebalanceObject) on the chunk sector.
//   2. Freeze     — make engaged chunks immutable (status + PPA slots).
//   3. MinVersion — pick the oldest read point any scan may still need,
//                   helping pending scans acquire versions.
//   4. Build      — clone live data into fresh infant chunks.
//   5. Replace    — splice the new sector into the list (mark, then CAS).
//   6. Index      — lazily unindex old chunks / index new ones.
//   7. Normalize  — flip infants to normal, re-enabling puts.
//
// Every stage is idempotent, so any thread that bumps into an in-flight
// rebalance can re-run it from the top (lock freedom: progress even if the
// original thread stalls).
//
// Two deliberate deviations from the paper's pseudocode (see DESIGN.md §2):
//  * completion is recorded in the rebalance object (`done`) instead of the
//    `pred.next.parent = C` test, which misfires once replacement chunks are
//    themselves replaced; and the replacement *section* is agreed through a
//    CAS on `ro->replacement`, so helpers splice one agreed section rather
//    than racing distinct clones (this also makes carrying PutBatch runs
//    through the build sound);
//  * a tombstone is dropped only when its version is at or below the minimal
//    read point — the literal pseudocode can drop a value a pending scan
//    still needs.
//
// Included by kiwi_map.h only; see kiwi_map_impl.h for the doctrine.
#pragma once

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/assert.h"
#include "common/test_hooks.h"
#include "common/thread_registry.h"
#include "core/kiwi_map.h"
#include "obs/trace.h"

namespace kiwi::core {

template <typename Layout>
auto KiWiMapT<Layout>::CheckRebalance(Chunk* chunk, KeyView key,
                                      ValueView value) -> Trigger {
  const typename Chunk::Status status =
      chunk->status.load(std::memory_order_acquire);
  if (status == Chunk::Status::kInfant) {
    // The chunk is not yet writable; finish its parent's rebalance (stages
    // 6-7 only — reachability implies the replace stage completed).
    RebalanceObject* ro = chunk->parent->ro.load(std::memory_order_acquire);
    KIWI_ASSERT(ro != nullptr, "infant chunk without a parent rebalance");
    Normalize(ro);
    return Trigger::kInfant;
  }
  bool full =
      chunk->k_counter.load(std::memory_order_acquire) > chunk->capacity ||
      chunk->v_counter.load(std::memory_order_acquire) >= chunk->capacity;
  if constexpr (Layout::kHasArena) {
    // The next entry must also fit the remaining arena.  Without this a
    // writer would claim cells only to fail its arena claim, and
    // PutRunPerOp would claim nothing and return 0, retrying forever.
    const std::uint32_t used =
        chunk->arena_used.load(std::memory_order_acquire);
    full = full || used > chunk->arena_capacity ||
           chunk->arena_capacity - used < Layout::EntryArenaBytes(key, value);
  }
  if (full || status == Chunk::Status::kFrozen ||
      policy_.ShouldTrigger(chunk->AllocatedCells(), chunk->batched_count,
                            ThreadRng())) {
    return Trigger::kRebalance;
  }
  return Trigger::kNone;
}

template <typename Layout>
std::size_t KiWiMapT<Layout>::Rebalance(Chunk* chunk,
                                        std::span<const Item> puts) {
  reclaim::EbrGuard guard(ebr_);
  KIWI_OBS_INC(obs_, rebalances);
  KIWI_OBS_TIMER(obs_, obs::Latency::kRebalance, whole_timer);
  KIWI_TRACE(kRebStart, reinterpret_cast<std::uintptr_t>(chunk), puts.size());

  // ---- stage 1: engage ------------------------------------------------
  Chunk* last = nullptr;
  RebalanceObject* ro;
  {
    KIWI_OBS_TIMER(obs_, obs::Latency::kRebalanceEngage, stage_timer);
    ro = Engage(chunk, &last);
  }
  if (ro == nullptr) {
    KIWI_TRACE(kRebDone, 0, 0);  // chunk already replaced; caller restarts
    return 0;
  }
  KIWI_TRACE(kRebEngage, reinterpret_cast<std::uintptr_t>(ro),
             reinterpret_cast<std::uintptr_t>(last));

  // ---- stage 2: freeze ------------------------------------------------
  {
    KIWI_OBS_TIMER(obs_, obs::Latency::kRebalanceFreeze, stage_timer);
    std::uint64_t frozen = 0;
    for (Chunk* c = ro->first;; c = c->Next()) {
      // Plain store, as in the paper: overwriting kInfant or kNormal with
      // kFrozen is exactly the intent, and stage 7's CAS(infant -> normal)
      // fails harmlessly afterwards.
      c->status.store(Chunk::Status::kFrozen, std::memory_order_seq_cst);
      // FreezePpa must run even when stats are compiled out (KIWI_OBS_ADD
      // drops its argument unevaluated), so call it outside the macro.
      const std::uint64_t ppa_retries = c->FreezePpa();
      KIWI_OBS_ADD(obs_, freeze_cas_retries, ppa_retries);
      (void)ppa_retries;  // silence -Wunused in KIWI_STATS=OFF builds
      ++frozen;
      if (c == last) break;
    }
    KIWI_TRACE(kRebFreeze, reinterpret_cast<std::uintptr_t>(ro), frozen);
  }

  TestHooks::Run(TestHooks::rebalance_after_freeze);

  // ---- stages 3-4: minimal version + build ------------------------------
  // The sector's key range is [first.minKey, succ.minKey); succ's minKey is
  // invariant even if the successor chunk itself gets replaced (replacement
  // heads inherit minKey), so this bound is stable.
  Version min_version;
  BuiltSection mine;
  {
    KIWI_OBS_TIMER(obs_, obs::Latency::kRebalanceBuild, stage_timer);
    Chunk* succ = last->Next();
    const KeyView range_from = ro->first->MinKey();
    const KeyView range_to = succ != nullptr ? succ->MinKey() : KeyView{};
    min_version =
        ComputeMinVersion(range_from, range_to, /*bounded=*/succ != nullptr);
    KIWI_TRACE(kRebMinVersion, reinterpret_cast<std::uintptr_t>(ro),
               min_version);
    mine = BuildSection(ro, last, min_version, puts);
    KIWI_TRACE(kRebBuild, reinterpret_cast<std::uintptr_t>(ro), mine.count);
  }

  // ---- stage 5: consensus + splice --------------------------------------
  bool consensus_winner = false;
  bool splice_winner = false;
  {
    KIWI_OBS_TIMER(obs_, obs::Latency::kRebalanceReplace, stage_timer);
    Chunk* expected_replacement = nullptr;
    consensus_winner = ro->replacement.compare_exchange_strong(
        expected_replacement, mine.first, std::memory_order_seq_cst);
    if (!consensus_winner) {
      DiscardSection(mine.first);  // never published
    }
    TestHooks::Run(TestHooks::replace_before_splice);
    Replace(ro, last, &splice_winner);
    KIWI_TRACE(kRebReplace, reinterpret_cast<std::uintptr_t>(ro),
               (static_cast<std::uint64_t>(consensus_winner) << 1) |
                   static_cast<std::uint64_t>(splice_winner));
  }

  // ---- stages 6-7 -------------------------------------------------------
  {
    KIWI_OBS_TIMER(obs_, obs::Latency::kRebalanceIndex, stage_timer);
    Normalize(ro);
  }

  if (splice_winner) {
    KIWI_OBS_INC(obs_, rebalance_wins);
    // Exactly one thread retires the old sector; concurrent readers inside
    // it are protected by their EBR guards.  The rebalance object itself is
    // reference-counted by the engaged chunks and dies with the last of
    // them (an orphaned chunk may legitimately outlive this rebalance).
    Chunk* c = ro->first;
    while (true) {
      Chunk* next = c->Next();
      KIWI_ASSERT(next != nullptr || c == last,
                  "retire walk fell off the list before reaching last — "
                  "helpers disagreed on the engaged sector");
      // Our own Replace call flagged the sector when its splice CAS won.
      KIWI_ASSERT(c->retired.load(std::memory_order_relaxed),
                  "splice winner retiring a chunk it never flagged");
      // The deleter returns the slab to the pool; EBR's grace period is
      // what makes the recycled slab safe to reissue.
      ebr_.Retire(
          c,
          [](void* chunk_ptr) {
            Chunk::Destroy(static_cast<Chunk*>(chunk_ptr));
          },
          c->MemoryFootprint());
      KIWI_OBS_INC(obs_, chunks_retired);
      if (c == last) break;
      c = next;
    }
  }

  KIWI_TRACE(kRebDone, reinterpret_cast<std::uintptr_t>(ro),
             (static_cast<std::uint64_t>(consensus_winner) << 1) |
                 static_cast<std::uint64_t>(splice_winner));
  // Only the consensus winner's puts were published; a loser's section (and
  // the puts merged into it) was discarded, so its caller must retry them.
  return consensus_winner ? mine.puts_included : 0;
}

template <typename Layout>
auto KiWiMapT<Layout>::Engage(Chunk* chunk, Chunk** last_out)
    -> RebalanceObject* {
  // A retired chunk was spliced out by a finished rebalance; the caller
  // reached it through a stale pointer and must restart its traversal.
  if (chunk->retired.load(std::memory_order_acquire)) return nullptr;
  RebalanceObject* ro = nullptr;
  while (true) {
    RebalanceObject* existing = chunk->ro.load(std::memory_order_acquire);
    if (existing != nullptr && existing->done.load(std::memory_order_acquire)) {
      // The chunk's rebalance finished.  Normally that means the chunk was
      // replaced and the caller should restart — but an engagement that
      // raced with the sealing CAS can leave a chunk marked with a finished
      // `ro` while still reachable (see the orphan discussion in DESIGN.md).
      // Reachable + done ⇒ orphan ⇒ re-engage under a fresh object.
      if (FindListPredecessor(chunk) == nullptr) return nullptr;  // replaced
      auto* fresh = RebalanceObject::Create(pool_, chunk, chunk->Next());
      if (chunk->ro.compare_exchange_strong(existing, fresh,
                                            std::memory_order_seq_cst)) {
        // The chunk's reference moved from `existing` to `fresh`; drop the
        // old one only after every guard that may still be reading it ends.
        ebr_.Retire(
            existing,
            [](void* ro_ptr) {
              RebalanceObjectT<Layout>::Unref(
                  static_cast<RebalanceObjectT<Layout>*>(ro_ptr));
            },
            sizeof(RebalanceObject));
        ro = fresh;
        break;
      }
      KIWI_OBS_INC(obs_, engage_cas_fails);
      RebalanceObject::Destroy(fresh);  // never published
      continue;
    }
    if (existing == nullptr) {
      auto* fresh = RebalanceObject::Create(pool_, chunk, chunk->Next());
      RebalanceObject* expected = nullptr;
      if (chunk->ro.compare_exchange_strong(expected, fresh,
                                            std::memory_order_seq_cst)) {
        ro = fresh;
        break;
      }
      KIWI_OBS_INC(obs_, engage_cas_fails);
      RebalanceObject::Destroy(fresh);  // never published
      continue;
    }
    ro = existing;
    break;
  }

  // Engage successors one at a time while the policy approves; the CAS on
  // ro->next makes the engaged set a consensus among helpers (Invariant 1).
  std::uint32_t engaged_chunks = 1;
  std::uint64_t engaged_cells = chunk->AllocatedCells();
  while (true) {
    Chunk* next = ro->next.load(std::memory_order_seq_cst);
    if (next == nullptr) break;  // sealed
    // A stall here is the disagreement window: another helper can extend or
    // seal the run before our CAS, leaving our observed length stale.
    TestHooks::Run(TestHooks::rebalance_during_engage);
    const bool want =
        next->status.load(std::memory_order_acquire) !=
            Chunk::Status::kSentinel &&
        policy_.ShouldEngageNext(engaged_chunks, engaged_cells,
                                 next->AllocatedCells());
    if (want) {
      RebalanceObject* expected = nullptr;
      if (next->ro.compare_exchange_strong(expected, ro,
                                           std::memory_order_seq_cst)) {
        // Our CAS installed the reference: account for it.
        RebalanceObject::Ref(ro);
      }
      if (next->ro.load(std::memory_order_acquire) == ro) {
        Chunk* expected_next = next;
        ro->next.compare_exchange_strong(expected_next, next->Next(),
                                         std::memory_order_seq_cst);
        engaged_chunks++;
        engaged_cells += next->AllocatedCells();
        continue;
      }
    }
    Chunk* expected_next = next;
    ro->next.compare_exchange_strong(expected_next, nullptr,
                                     std::memory_order_seq_cst);
  }

  // Publish one consensus answer for "where does the engaged run end".
  // Competing helpers may observe different run lengths (a successful
  // engagement CAS can land after another helper already sealed ro->next),
  // and every later stage — freeze, build, stitch, retire — must agree on
  // the sector or a retired chunk can be left reachable.
  Chunk* observed_last = FindLastEngaged(ro);
  if (TestHooks::MutantEnabled(TestHooks::kLastEngagedRace)) [[unlikely]] {
    // Mutant: the pre-consensus seed behaviour — every helper trusts its
    // own view of the engaged run (PR1's latent double-retire race).
    *last_out = observed_last;
    return ro;
  }
  Chunk* expected_last = nullptr;
  ro->last_engaged.compare_exchange_strong(expected_last, observed_last,
                                           std::memory_order_seq_cst);
  *last_out = ro->last_engaged.load(std::memory_order_acquire);
  if (*last_out != observed_last) {
    // Another helper's consensus view of the engaged run won over ours.
    KIWI_TRACE(kRebEngageAdopt, reinterpret_cast<std::uintptr_t>(observed_last),
               reinterpret_cast<std::uintptr_t>(*last_out));
  }
  return ro;
}

template <typename Layout>
auto KiWiMapT<Layout>::FindLastEngaged(RebalanceObject* ro) const -> Chunk* {
  Chunk* last = ro->first;
  while (true) {
    Chunk* next = last->Next();
    if (next == nullptr || next->ro.load(std::memory_order_acquire) != ro) {
      return last;
    }
    last = next;
  }
}

template <typename Layout>
Version KiWiMapT<Layout>::ComputeMinVersion(KeyView from, KeyView to_exclusive,
                                            bool bounded) {
  // Reading GV *before* the PSA passes is what makes the bound safe: any
  // scan we fail to observe below publishes its pending entry before its
  // F&I, so its version is at least this value.
  Version min_version = gv_.Load();

  struct PendingScan {
    PsaEntry* entry;
    std::uint64_t seq;
  };
  std::vector<PendingScan> to_help;

  const std::size_t high_water = ThreadRegistry::HighWater();
  // Transient scans and pinned Snapshot views are tracked in separate
  // arrays with identical protocols: visit psa_, then each snapshot array.
  for (std::size_t i = 0; i <= kMaxSnapshotsPerThread; ++i) {
    Psa& array = i == 0 ? psa_ : snapshot_psa_[i - 1];
    for (std::size_t t = 0; t < high_water; ++t) {
      PsaEntry& entry = array.Slot(t);
      const typename PsaEntry::VerSeq vs = entry.Load();
      if (vs.ver == kNoVersion) continue;
      // Byte layouts answer in the normalized-prefix domain — conservative
      // (a spurious overlap only costs an extra help), never lossy.
      if (!Layout::PsaOverlaps(from, bounded, to_exclusive, entry.From(),
                               entry.To())) {
        continue;
      }
      if (vs.ver == kPendingVersion) {
        to_help.push_back(PendingScan{&entry, vs.seq});
      } else {
        min_version = std::min(min_version, vs.ver);
      }
    }
  }

  if (!to_help.empty()) {
    // One F&I serves every pending scan found (paper lines 91-95).
    const Version helped_version = gv_.FetchIncrement();
    for (const PendingScan& p : to_help) {
      if (p.entry->HelpInstall(p.seq, helped_version)) {
        KIWI_OBS_INC(obs_, scans_helped);
        KIWI_TRACE(kScanHelpInstall,
                   reinterpret_cast<std::uintptr_t>(p.entry), helped_version);
      }
      // Whether our CAS or the scan's own won, account for the installed
      // version (if the scan has not already finished and moved on).
      const typename PsaEntry::VerSeq vs = p.entry->Load();
      if (vs.seq == p.seq && vs.ver != kNoVersion &&
          vs.ver != kPendingVersion) {
        min_version = std::min(min_version, vs.ver);
      }
    }
  }
  return min_version;
}

template <typename Layout>
void KiWiMapT<Layout>::CompactKeyRun(const std::vector<Item>& items,
                                     std::size_t begin, std::size_t end,
                                     Version min_version,
                                     std::vector<Item>& out) {
  // One key's versions, descending.  Keep everything above min_version
  // (scans may still need any of them — including tombstones, which must
  // stay visible so a scan at a later read point does not resurrect older
  // data).  At or below min_version, only the newest survives, and not even
  // that if it is a tombstone (nobody can read below min_version anymore).
  Version previous = kPendingVersion;  // larger than any real version
  for (std::size_t i = begin; i < end; ++i) {
    const Item& item = items[i];
    if (item.version == previous) continue;  // {key,version} tie loser
    previous = item.version;
    if (Layout::IsTombstone(item.value) &&
        TestHooks::MutantEnabled(TestHooks::kEagerTombstonePurge))
        [[unlikely]] {
      // Mutant: the paper's literal line 109 — drop the tombstone and all
      // older versions regardless of min_version (reverts deviation 1; a
      // pending scan below the tombstone's version loses its value).
      break;
    }
    if (item.version > min_version) {
      out.push_back(item);
      continue;
    }
    if (!Layout::IsTombstone(item.value)) out.push_back(item);
    break;
  }
}

template <typename Layout>
auto KiWiMapT<Layout>::BuildSection(RebalanceObject* ro, Chunk* last,
                                    Version min_version,
                                    std::span<const Item> puts)
    -> BuiltSection {
  // Harvest the engaged sector.  Chunks hold ascending disjoint ranges and
  // CollectItems sorts within a chunk, so concatenation is globally sorted.
  std::vector<Item> items;
  for (Chunk* c = ro->first;; c = c->Next()) {
    c->CollectItems(items);
    if (c == last) break;
  }

  std::uint32_t puts_included = 0;
  if (!puts.empty()) {
    // The carried puts take the current GV, like any put would; since every
    // harvested version came from an earlier GV load, each put item is the
    // newest version of its key.  One load covers the whole run: concurrent
    // puts may legally share a version (scans F&I past it).
    Chunk* succ = last->Next();
    const KeyView range_from = ro->first->MinKey();
    const bool bounded = succ != nullptr;
    const KeyView range_to = bounded ? succ->MinKey() : KeyView{};
    const Version put_version = gv_.Load();
    std::vector<Item> put_items;
    put_items.reserve(puts.size());
    for (const Item& put : puts) {
      if (Layout::KeyLess(put.key, range_from) ||
          (bounded && Layout::KeyLeq(range_to, put.key))) {
        continue;
      }
      // INT32_MAX as the value location: the carried put wins any
      // {key, version} tie against sector-internal data.
      put_items.push_back(Item{put.key, put_version,
                               std::numeric_limits<std::int32_t>::max(),
                               put.value});
    }
    if (!put_items.empty()) {
      // `puts` is sorted with distinct keys, so put_items is too; one merge
      // instead of a per-item insertion.
      std::vector<Item> merged;
      merged.reserve(items.size() + put_items.size());
      std::merge(items.begin(), items.end(), put_items.begin(),
                 put_items.end(), std::back_inserter(merged),
                 Chunk::ItemBefore);
      items.swap(merged);
      puts_included = static_cast<std::uint32_t>(put_items.size());
    }
  }

  // Compact per key run.
  std::vector<Item> kept;
  kept.reserve(items.size());
  std::size_t run_begin = 0;
  for (std::size_t i = 1; i <= items.size(); ++i) {
    if (i == items.size() ||
        !Layout::KeyEq(items[i].key, items[run_begin].key)) {
      CompactKeyRun(items, run_begin, i, min_version, kept);
      run_begin = i;
    }
  }

  // Carve the survivors into infant chunks (stage 7 normalizes them).
  BuiltSection section = CarveChunks(kept, ro->first->MinKey(), ro->first,
                                     Chunk::Status::kInfant);
  section.puts_included = puts_included;
  return section;
}

template <typename Layout>
auto KiWiMapT<Layout>::CarveChunks(std::span<const Item> items,
                                   KeyView first_min_key, Chunk* parent,
                                   typename Chunk::Status status)
    -> BuiltSection {
  // Filled to kFillRatio, never splitting one key's version run across a
  // boundary (a get must find every version of its key in the single chunk
  // covering it).  Byte layouts budget each segment's arena bytes (min_key
  // copy + keys + values) to the same fill fraction, so later puts have
  // byte headroom matching the cell headroom.
  const std::uint32_t capacity = policy_.config().chunk_capacity;
  const std::uint32_t fill = std::clamp<std::uint32_t>(
      static_cast<std::uint32_t>(kFillRatio * capacity), 1, capacity);
  const std::uint32_t sparse =
      static_cast<std::uint32_t>(kSparseRatio * capacity);
  // Budgeted to the fill fraction but always leaving one max-size entry of
  // headroom: a rebuilt chunk must be able to absorb the very put whose
  // arena overflow triggered the rebalance, or that put re-triggers it
  // forever (livelock).  max_entry_bytes_ <= arena/4 keeps the clamp sane.
  [[maybe_unused]] const std::size_t arena_fill = std::min<std::size_t>(
      std::max<std::size_t>(
          max_entry_bytes_,
          static_cast<std::size_t>(kFillRatio * arena_capacity_)),
      arena_capacity_ - max_entry_bytes_);

  struct Segment {
    std::size_t begin;
    std::size_t end;
    std::size_t bytes;  // arena bytes incl. the min_key copy (byte layouts)
  };
  std::vector<Segment> segments;
  std::size_t begin = 0;
  while (begin < items.size()) {
    std::size_t seg_bytes = 0;
    if constexpr (Layout::kHasArena) {
      seg_bytes = segments.empty() ? first_min_key.size()
                                   : items[begin].key.size();
    }
    std::size_t end = begin;
    while (end < items.size() && end - begin < fill) {
      if constexpr (Layout::kHasArena) {
        const std::size_t need =
            Layout::EntryArenaBytes(items[end].key, items[end].value);
        if (end > begin && seg_bytes + need > arena_fill) break;
        seg_bytes += need;
      }
      ++end;
    }
    // Extend to the end of the key run straddling the boundary.
    while (end < items.size() &&
           Layout::KeyEq(items[end].key, items[end - 1].key)) {
      if constexpr (Layout::kHasArena) {
        seg_bytes += Layout::EntryArenaBytes(items[end].key, items[end].value);
      }
      ++end;
    }
    KIWI_ASSERT(end - begin <= capacity,
                "one key's version run exceeds a whole chunk");
    segments.push_back(Segment{begin, end, seg_bytes});
    begin = end;
  }
  // Fold a too-sparse trailing chunk into its predecessor when it fits.
  if (segments.size() >= 2) {
    Segment& tail = segments.back();
    Segment& prev = segments[segments.size() - 2];
    bool fold = tail.end - tail.begin < sparse &&
                tail.end - prev.begin <= capacity;
    if constexpr (Layout::kHasArena) {
      // Folding drops the tail's separate min_key copy; the merge must
      // respect the *budget*, not just fit the arena — a fold up to raw
      // capacity leaves no headroom and livelocks the next overflowing put
      // (the cell-count bound is safe by construction: fill + sparse <
      // capacity, but a byte-budget-limited tail can be cell-sparse yet
      // byte-heavy).
      fold = fold && prev.bytes + tail.bytes - items[tail.begin].key.size() <=
                         arena_fill;
    }
    if (fold) {
      prev.end = tail.end;
      if constexpr (Layout::kHasArena) {
        prev.bytes += tail.bytes - items[tail.begin].key.size();
      }
      segments.pop_back();
    }
  }
  if (segments.empty()) segments.push_back(Segment{0, 0, 0});  // >= 1 chunk

  BuiltSection section;
  Chunk* prev_chunk = nullptr;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const auto [seg_begin, seg_end, seg_bytes] = segments[s];
    // A pinned snapshot (or long scan) can retain more versions of one key
    // than the default arena holds, and a key's version run is never split
    // across chunks — such a segment gets its own oversized arena (plus the
    // usual one-max-entry headroom so the put that triggered this rebalance
    // still fits) instead of a fatal abort.  The slab pool serves arbitrary
    // sizes, falling back to the OS for unpooled classes.
    std::uint32_t seg_arena = arena_capacity_;
    if constexpr (Layout::kHasArena) {
      const std::size_t need = seg_bytes + max_entry_bytes_;
      if (need > seg_arena) {
        KIWI_ASSERT(need <= std::numeric_limits<std::int32_t>::max(),
                    "one key's version run exceeds the 31-bit arena bound");
        seg_arena = static_cast<std::uint32_t>(need);
      }
    }
    (void)seg_bytes;
    // The first chunk starts at `first_min_key` (a rebuilt sector's min key,
    // or the minimal user key for a bulk load) so the covered range is
    // exactly preserved; later chunks start at their first key.
    const KeyView min_key = s == 0 ? first_min_key : items[seg_begin].key;
    auto* chunk = Chunk::Create(pool_, min_key, capacity, parent, status,
                                items.subspan(seg_begin, seg_end - seg_begin),
                                seg_arena);
    KIWI_OBS_INC(obs_, chunks_created);
    if (prev_chunk != nullptr) {
      prev_chunk->next.Store(MarkedPtr<Chunk>(chunk, false));
    } else {
      section.first = chunk;
    }
    prev_chunk = chunk;
    section.count++;
  }
  section.last = prev_chunk;
  return section;
}

template <typename Layout>
bool KiWiMapT<Layout>::Replace(RebalanceObject* ro, Chunk* last, bool* i_won) {
  *i_won = false;
  Chunk* replacement = ro->replacement.load(std::memory_order_acquire);
  KIWI_ASSERT(replacement != nullptr, "replace before consensus");

  while (true) {
    if (ro->done.load(std::memory_order_acquire)) return true;

    // Step 1: make last's next immutable so every helper stitches the same
    // successor.
    MarkedPtr<Chunk> succ = last->next.Load();
    while (!succ.Mark()) {
      last->next.CompareExchange(succ, MarkedPtr<Chunk>(succ.Ptr(), true));
      succ = last->next.Load();
    }

    // Step 2: point the replacement tail at that successor (idempotent: the
    // tail's next is CASed from null exactly once).
    Chunk* tail = replacement;
    while (true) {
      Chunk* next = tail->Next();
      if (next == nullptr || next->parent != ro->first) break;
      tail = next;
    }
    MarkedPtr<Chunk> null_next(nullptr, false);
    tail->next.CompareExchange(null_next, MarkedPtr<Chunk>(succ.Ptr(), false));

    // Step 3: swing the predecessor of the old sector to the new one.
    Chunk* pred = FindListPredecessor(ro->first);
    if (pred == nullptr) {
      // The old sector is no longer reachable: someone completed the splice.
      return true;
    }
    MarkedPtr<Chunk> expected(ro->first, false);
    if (pred->next.CompareExchange(expected,
                                   MarkedPtr<Chunk>(replacement, false))) {
      // The old sector is unreachable as of this CAS.  Flag it retired
      // *before* announcing done: the orphan re-engagement check in Engage
      // fires only on done objects and relies on the flags to reject stale
      // list edges into the dead sector.  If done were visible first, a
      // racing helper could walk a dead-but-unflagged region, deem a
      // spliced-out chunk reachable, and re-engage it under a fresh
      // rebalance — retiring it a second time.
      for (Chunk* c = ro->first;; c = c->Next()) {
        KIWI_ASSERT(!c->retired.exchange(true),
                    "chunk retired twice — two rebalance generations claimed "
                    "the same chunk");
        if (c == last) break;
      }
      ro->done.store(true, std::memory_order_seq_cst);
      *i_won = true;
      return true;
    }

    // CAS failed.  If pred's next is marked while still aiming at our
    // sector, pred is the last engaged chunk of another rebalance: help it
    // to completion, then retry with the fresh predecessor (paper line 123).
    KIWI_OBS_INC(obs_, splice_retries);
    const MarkedPtr<Chunk> current = pred->next.Load();
    if (current.Ptr() == ro->first && current.Mark()) {
      KIWI_OBS_INC(obs_, splice_helps);
      Rebalance(pred, {});
    }
    // Otherwise the list moved under us; loop to re-find the predecessor.
  }
}

template <typename Layout>
void KiWiMapT<Layout>::Normalize(RebalanceObject* ro) {
  reclaim::EbrGuard guard(ebr_);
  KIWI_TRACE(kRebIndex, reinterpret_cast<std::uintptr_t>(ro), 0);
  // The replacement section is live but the index still aims at the old
  // chunks; lookups crossing this window must recover via the list walk.
  TestHooks::Run(TestHooks::rebalance_before_index_update);
  // ---- stage 6: index update -----------------------------------------
  // Unindex the engaged chunks (walk by ro membership)...
  for (Chunk* c = ro->first;
       c != nullptr && c->ro.load(std::memory_order_acquire) == ro;
       c = c->Next()) {
    index_.DeleteConditional(c->MinKey(), c);
  }
  // ...then index the replacement chunks (walk by parentage).  A chunk that
  // froze in the meantime was already superseded — never re-index it.
  Chunk* replacement = ro->replacement.load(std::memory_order_acquire);
  KIWI_ASSERT(replacement != nullptr, "normalize before consensus");
  for (Chunk* c = replacement; c != nullptr && c->parent == ro->first;
       c = c->Next()) {
    while (true) {
      typename index::ChunkIndexT<Layout>::Handle prev =
          index_.Lookup(c->MinKey());
      if (c->status.load(std::memory_order_seq_cst) ==
          Chunk::Status::kFrozen) {
        break;
      }
      if (index_.PutConditional(c->MinKey(), prev, c)) break;
      KIWI_OBS_INC(obs_, index_cas_retries);
    }
  }
  // ---- stage 7: normalize ---------------------------------------------
  std::uint64_t normalized = 0;
  for (Chunk* c = replacement; c != nullptr && c->parent == ro->first;
       c = c->Next()) {
    typename Chunk::Status expected = Chunk::Status::kInfant;
    c->status.compare_exchange_strong(expected, Chunk::Status::kNormal,
                                      std::memory_order_seq_cst);
    ++normalized;
  }
  KIWI_TRACE(kRebNormalize, reinterpret_cast<std::uintptr_t>(ro), normalized);
}

template <typename Layout>
auto KiWiMapT<Layout>::FindListPredecessor(Chunk* target) const -> Chunk* {
  // LookupBelow resolves to the greatest indexed chunk whose minKey is
  // strictly below target's (byte keys have no "minKey - 1", so the index
  // exposes the strict-predecessor lookup directly); at worst that is the
  // sentinel.
  //
  // The lazy index may return — or a reader may lazily re-insert — a chunk
  // that has since been retired.  A retired chunk's next pointer still
  // aims into its old neighborhood, so a walk through a dead region can
  // "find" a predecessor for a target the live list no longer reaches.
  // Callers use that answer as reachability evidence (the orphan check) or
  // as a splice-CAS target; either use on a dead chunk resurrects retired
  // chunks into the list (double retire).  So: never start from, return,
  // or walk through a retired chunk — on meeting one, re-resolve from the
  // sentinel, which is never retired.  Each restart implies another
  // thread's rebalance completed in the meantime, so this cannot loop
  // without global progress.
  while (true) {
    auto* c = static_cast<Chunk*>(index_.LookupBelow(target->MinKey()));
    if (c == nullptr || c->retired.load(std::memory_order_acquire)) {
      c = sentinel_;
    }
    bool dead_region = false;
    while (c != nullptr) {
      if (c != sentinel_ && c->retired.load(std::memory_order_acquire)) {
        dead_region = true;
        break;
      }
      const MarkedPtr<Chunk> m = c->next.Load();
      Chunk* next = m.Ptr();
      if (next == target) return c;
      // minKeys never decrease along next pointers; passing target's minKey
      // without meeting it means it is unreachable.  Equal minKeys (a
      // replacement head) are walked through.
      if (next == nullptr ||
          Layout::KeyLess(target->MinKey(), next->MinKey())) {
        return nullptr;
      }
      c = next;
    }
    if (!dead_region) return nullptr;
  }
}

template <typename Layout>
void KiWiMapT<Layout>::DiscardSection(Chunk* first) {
  // A consensus-losing section was never visible to anyone: its slabs go
  // straight back to the pool, no grace period needed.
  while (first != nullptr) {
    Chunk* next = first->Next();
    KIWI_ASSERT(!first->retired.exchange(true),
                "discarding a chunk that was already retired through EBR");
    KIWI_TRACE(kChunkDiscard, reinterpret_cast<std::uintptr_t>(first), 0);
    Chunk::Destroy(first);
    first = next;
  }
}

}  // namespace kiwi::core
