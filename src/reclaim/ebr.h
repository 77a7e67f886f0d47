// Epoch-based memory reclamation (EBR).
//
// The paper runs on a garbage-collected runtime and merely notes that "a
// complementary garbage-collection mechanism eventually removes disconnected
// frozen chunks".  In native code that mechanism must be built: operations
// (get/put/scan/rebalance) execute inside an epoch *guard*; retired objects
// (frozen chunks, skiplist nodes, tree nodes) are freed only once every
// guard that could have observed them has been released.
//
// Classic 3-epoch scheme (Fraser):
//   - a global epoch E advances only when every active thread has observed E;
//   - an object retired in epoch e is safe to free once the global epoch
//     reaches e + 2 (no active guard can date from before e + 1).
//
// Guards are reentrant: a put that triggers rebalance re-enters the same
// epoch without re-announcing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/padded.h"

namespace kiwi::reclaim {

class Ebr;

/// RAII critical-section marker.  Cheap to construct (one release store on
/// outermost entry).  Movable, not copyable.
class EbrGuard {
 public:
  explicit EbrGuard(Ebr& ebr);
  ~EbrGuard();
  EbrGuard(const EbrGuard&) = delete;
  EbrGuard& operator=(const EbrGuard&) = delete;

 private:
  Ebr* ebr_;
  std::size_t slot_;
};

class Ebr {
 public:
  using Deleter = void (*)(void*);

  Ebr();
  ~Ebr();
  Ebr(const Ebr&) = delete;
  Ebr& operator=(const Ebr&) = delete;

  /// Hand `object` to the reclaimer.  Must be called inside a guard (the
  /// object must already be unreachable for new operations).  `deleter` is
  /// invoked once it is provably unobservable.  `bytes` (optional) is the
  /// object's footprint, accumulated into PendingBytes() while the object
  /// sits in limbo — pass it where known so operators can see reclamation
  /// stalls in bytes, not just object counts.
  void Retire(void* object, Deleter deleter, std::size_t bytes = 0);

  /// Convenience: retire a typed object deleted with `delete`.
  template <typename T>
  void RetireObject(T* object) {
    Retire(object, [](void* p) { delete static_cast<T*>(p); });
  }

  /// Attempt to advance the epoch and free everything freeable.  Called
  /// automatically by Retire; exposed for tests and quiescent points.
  /// Returns the number of objects freed.
  std::size_t Collect();

  /// Quiescent-only: fold every thread's retire buffer (including exited
  /// threads') into the global list and free everything possible.  The
  /// caller must guarantee no concurrent guards or retires.
  std::size_t CollectAllQuiescent();

  /// Diagnostics: objects retired but not yet freed.
  std::size_t PendingCount() const;

  /// Diagnostics: bytes retired but not yet freed (sum of the `bytes`
  /// arguments of pending Retire calls; objects retired without a size
  /// contribute zero).
  std::size_t PendingBytes() const {
    return pending_bytes_.load(std::memory_order_relaxed);
  }

  /// Diagnostics: current global epoch.
  std::uint64_t GlobalEpoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Diagnostics: how far the slowest active guard trails the global epoch
  /// (0 when no guard is active or all are current).  A lag that stays >= 1
  /// across samples means a stalled reader is pinning reclamation.
  std::uint64_t EpochLag() const;

 private:
  friend class EbrGuard;

  struct Retired {
    void* object;
    Deleter deleter;
    std::uint64_t epoch;
    std::size_t bytes;
  };

  struct alignas(kCacheLineSize) Slot {
    /// Epoch announced by an active guard, or kInactive.
    std::atomic<std::uint64_t> announced{kInactive};
    /// Guard nesting depth; touched only by the owning thread.
    std::uint32_t nesting = 0;
  };

  static constexpr std::uint64_t kInactive = ~std::uint64_t{0};
  /// Collect() is attempted every kCollectPeriod retires per thread.
  static constexpr std::size_t kCollectPeriod = 64;

  void Enter(std::size_t slot);
  void Exit(std::size_t slot);
  bool TryAdvanceEpoch();

  std::atomic<std::uint64_t> global_epoch_{0};
  Slot slots_[kMaxThreads];

  // Retired objects live in per-thread buffers to keep Retire lock-free in
  // the common case; Collect folds them into the global list under a small
  // spinlock (collection is rare and off the critical path).
  struct alignas(kCacheLineSize) RetireBuffer {
    std::vector<Retired> items;
    std::size_t since_collect = 0;
  };
  RetireBuffer buffers_[kMaxThreads];

  std::atomic_flag collect_lock_ = ATOMIC_FLAG_INIT;
  std::vector<Retired> global_retired_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> pending_bytes_{0};
};

}  // namespace kiwi::reclaim
