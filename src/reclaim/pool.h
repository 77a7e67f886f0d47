// SlabPool — size-classed slab recycling for the rebalance hot path.
//
// KiWi's churn unit is the chunk: every rebalance builds a replacement
// section of freshly allocated chunk slabs and retires the old sector
// through EBR.  With a general-purpose allocator each of those round trips
// costs a malloc/free pair of tens of kilobytes — under rebalance-heavy
// workloads the allocator, not the algorithm, dominates (cf. Jiffy, which
// lives or dies on allocation cost under churn).  This pool closes the
// loop: EBR's deferred deleters hand retired slabs here instead of to the
// OS, and rebalance's build stage allocates its infant chunks from the
// recycled stock.
//
// Shape:
//   - Allocations are rounded up to the cache line and served 64-byte
//     aligned (chunk slabs embed cache-aligned headers and atomics).
//   - Size classes are *exact* rounded sizes, registered first-come into a
//     small fixed table.  KiWi allocates only a handful of distinct sizes
//     (one chunk-slab size per configured capacity + the RebalanceObject),
//     so exact classes give byte-precise reuse with no power-of-two slack.
//     Sizes that overflow the table fall through to the OS (`unpooled`).
//   - Each thread owns a small bounded cache of free slabs per class
//     (ThreadRegistry slot-indexed, touched only by the owning thread — no
//     synchronization on the fast path).  Overflow spills to a global
//     per-class list under a spinlock; allocation misses on the local cache
//     refill from the spill before falling back to the OS.
//
// Reclamation safety is inherited from EBR, not re-implemented: a slab
// only reaches Deallocate() through an EBR deleter (or a provably-private
// path such as a consensus-losing section), so by the time it can be
// reissued every guard that could have observed the old object has exited.
// Under AddressSanitizer, pooled slabs are poisoned while idle so that a
// use-after-retire is reported with the same fidelity as a real free —
// this is what the `asan` CI job leans on.
//
// Thread safety: Allocate/Deallocate may be called from any registered
// thread.  Trim() and the destructor are quiescent-only (no concurrent
// pool calls), like Ebr::CollectAllQuiescent.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/config.h"

namespace kiwi::reclaim {

class SlabPool {
 public:
  /// Every slab is aligned to (and sized in multiples of) the cache line.
  static constexpr std::size_t kAlignment = kCacheLineSize;
  /// Distinct slab sizes the pool will track; later sizes go unpooled.
  static constexpr std::size_t kMaxSizeClasses = 8;
  /// Bound on free slabs cached per thread per class.
  static constexpr std::uint32_t kThreadCacheSlabs = 8;

  SlabPool() = default;
  ~SlabPool();
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// A 64-byte-aligned block of at least `bytes`.  Recycles a pooled slab
  /// of the same class when one is available, else falls back to the OS.
  void* Allocate(std::size_t bytes);

  /// Return a block obtained from Allocate(`bytes`).  The block enters the
  /// calling thread's cache (or the global spill list once the cache is
  /// full) for reuse; its payload is poisoned under ASAN while pooled.
  void Deallocate(void* block, std::size_t bytes);

  /// Monotone counters + byte gauges, all readable concurrently (relaxed).
  struct Stats {
    std::uint64_t hits = 0;      // allocations served from pooled stock
    std::uint64_t misses = 0;    // allocations that went to the OS
    std::uint64_t recycled = 0;  // deallocations captured for reuse
    std::uint64_t spills = 0;    // thread-cache overflows to the spill list
    std::uint64_t unpooled = 0;  // ops on sizes beyond the class table
    std::uint64_t trims = 0;     // slabs released to the OS by Trim()
    std::uint64_t class_cas_retries = 0;  // lost size-class registration CASes
    std::uint64_t live_bytes = 0;    // handed out and not yet returned
    std::uint64_t pooled_bytes = 0;  // idle in caches + spill lists
  };
  Stats GetStats() const;

  /// Quiescent-only: release every pooled slab back to the OS.  Returns the
  /// number of slabs freed.
  std::size_t Trim();

  /// Rounded (actual) size of a block Allocate(bytes) returns.
  static constexpr std::size_t RoundedSize(std::size_t bytes) {
    return (bytes + kAlignment - 1) & ~(kAlignment - 1);
  }

 private:
  /// Intrusive free-list link, stored in the first word of an idle slab.
  struct FreeSlab {
    FreeSlab* next;
  };

  struct SizeClass {
    /// Rounded slab size; 0 while unregistered.  Registered once by CAS.
    std::atomic<std::size_t> bytes{0};
    /// Global overflow list, guarded by `lock`.
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    FreeSlab* spill_head = nullptr;
    std::size_t spill_count = 0;
  };

  struct ClassCache {
    FreeSlab* head = nullptr;
    std::uint32_t count = 0;
  };
  /// Per-thread caches, slot-indexed; only the owning thread touches its
  /// row (Trim/destructor excepted — quiescent by contract).
  struct alignas(kCacheLineSize) ThreadCache {
    ClassCache classes[kMaxSizeClasses];
  };

  /// Index of the class for `rounded` bytes, registering it if `create`.
  /// Returns kMaxSizeClasses when the table is full (unpooled).
  std::size_t ClassFor(std::size_t rounded, bool create);

  SizeClass classes_[kMaxSizeClasses];
  ThreadCache caches_[kMaxThreads];

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> recycled_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<std::uint64_t> unpooled_{0};
  std::atomic<std::uint64_t> trims_{0};
  std::atomic<std::uint64_t> class_cas_retries_{0};
  std::atomic<std::uint64_t> live_bytes_{0};
  std::atomic<std::uint64_t> pooled_bytes_{0};
};

}  // namespace kiwi::reclaim
