#include "reclaim/ebr.h"

#include "common/assert.h"
#include "common/backoff.h"
#include "common/test_hooks.h"
#include "common/thread_registry.h"
#include "obs/trace.h"

namespace kiwi::reclaim {

EbrGuard::EbrGuard(Ebr& ebr)
    : ebr_(&ebr), slot_(ThreadRegistry::CurrentSlot()) {
  ebr_->Enter(slot_);
}

EbrGuard::~EbrGuard() { ebr_->Exit(slot_); }

Ebr::Ebr() = default;

Ebr::~Ebr() {
  // Destruction is externally synchronized: no guards may be active.  Free
  // everything still pending.
  for (auto& buffer : buffers_) {
    for (const Retired& r : buffer.items) r.deleter(r.object);
    buffer.items.clear();
  }
  for (const Retired& r : global_retired_) r.deleter(r.object);
  global_retired_.clear();
}

void Ebr::Enter(std::size_t slot) {
  Slot& s = slots_[slot];
  if (s.nesting++ > 0) return;  // re-entrant: already announced
  // seq_cst so the announcement is globally visible before any subsequent
  // read of shared structure data (store-load ordering with the collector's
  // scan of announced epochs).
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  s.announced.store(e, std::memory_order_seq_cst);
}

void Ebr::Exit(std::size_t slot) {
  Slot& s = slots_[slot];
  KIWI_ASSERT(s.nesting > 0, "guard exit without matching enter");
  if (--s.nesting == 0) {
    s.announced.store(kInactive, std::memory_order_release);
  }
}

void Ebr::Retire(void* object, Deleter deleter, std::size_t bytes) {
  // The object is already unreachable for new operations but guards may
  // still traverse it; a stall here stretches the window between logical
  // and physical retirement (grace-period + slab-recycling stress).
  TestHooks::Run(TestHooks::kEbrBeforeRetire);
  const std::size_t slot = ThreadRegistry::CurrentSlot();
  RetireBuffer& buffer = buffers_[slot];
  const std::uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
  KIWI_TRACE(kEbrRetire, reinterpret_cast<std::uintptr_t>(object), epoch);
  buffer.items.push_back(Retired{object, deleter, epoch, bytes});
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (bytes > 0) pending_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (++buffer.since_collect >= kCollectPeriod) {
    buffer.since_collect = 0;
    Collect();
  }
}

bool Ebr::TryAdvanceEpoch() {
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  const std::size_t high_water = ThreadRegistry::HighWater();
  for (std::size_t i = 0; i < high_water; ++i) {
    const std::uint64_t announced =
        slots_[i].announced.load(std::memory_order_seq_cst);
    if (announced != kInactive && announced < e) return false;
  }
  if (global_epoch_.compare_exchange_strong(e, e + 1,
                                            std::memory_order_seq_cst)) {
    KIWI_TRACE(kEbrEpoch, e + 1, 0);
  }
  return true;  // either we advanced or someone else did
}

std::size_t Ebr::Collect() {
  // Fold the caller's buffer into the global list and free what is provably
  // unobservable.  A try-lock keeps collection single-threaded; losers just
  // return (their buffers will be folded on a later attempt).
  if (collect_lock_.test_and_set(std::memory_order_acquire)) return 0;

  const std::size_t slot = ThreadRegistry::CurrentSlot();
  RetireBuffer& buffer = buffers_[slot];
  global_retired_.insert(global_retired_.end(), buffer.items.begin(),
                         buffer.items.end());
  buffer.items.clear();

  TryAdvanceEpoch();
  const std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
  std::size_t freed = 0;
  std::size_t freed_bytes = 0;
  if (now >= 2) {
    const std::uint64_t safe = now - 2;  // retired at epoch <= safe is free-able
    std::size_t write = 0;
    for (std::size_t read = 0; read < global_retired_.size(); ++read) {
      const Retired& r = global_retired_[read];
      if (r.epoch <= safe) {
        r.deleter(r.object);
        ++freed;
        freed_bytes += r.bytes;
      } else {
        global_retired_[write++] = r;
      }
    }
    global_retired_.resize(write);
  }
  pending_.fetch_sub(freed, std::memory_order_relaxed);
  if (freed_bytes > 0) {
    pending_bytes_.fetch_sub(freed_bytes, std::memory_order_relaxed);
  }
  if (freed > 0) {
    KIWI_TRACE(kEbrCollect, freed, pending_.load(std::memory_order_relaxed));
  }
  collect_lock_.clear(std::memory_order_release);
  return freed;
}

std::size_t Ebr::CollectAllQuiescent() {
  std::size_t freed = 0;
  for (auto& buffer : buffers_) {
    for (const Retired& r : buffer.items) {
      r.deleter(r.object);
      ++freed;
    }
    buffer.items.clear();
    buffer.since_collect = 0;
  }
  for (const Retired& r : global_retired_) {
    r.deleter(r.object);
    ++freed;
  }
  global_retired_.clear();
  pending_.store(0, std::memory_order_relaxed);
  pending_bytes_.store(0, std::memory_order_relaxed);
  return freed;
}

std::size_t Ebr::PendingCount() const {
  return pending_.load(std::memory_order_relaxed);
}

std::uint64_t Ebr::EpochLag() const {
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  std::uint64_t slowest = e;
  const std::size_t high_water = ThreadRegistry::HighWater();
  for (std::size_t i = 0; i < high_water; ++i) {
    const std::uint64_t announced =
        slots_[i].announced.load(std::memory_order_acquire);
    if (announced != kInactive && announced < slowest) slowest = announced;
  }
  return e - slowest;
}

}  // namespace kiwi::reclaim
