#include "reclaim/pool.h"

#include <new>

#include "common/assert.h"
#include "common/thread_registry.h"

// Pooled slabs are poisoned while idle so ASAN reports a use-after-retire
// exactly like a use-after-free.  The first word (the intrusive link) stays
// readable; everything past it is off limits until the slab is reissued.
#if defined(__SANITIZE_ADDRESS__)
#define KIWI_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KIWI_POOL_ASAN 1
#endif
#endif
#ifdef KIWI_POOL_ASAN
#include <sanitizer/asan_interface.h>
#define KIWI_POOL_POISON(ptr, size) __asan_poison_memory_region(ptr, size)
#define KIWI_POOL_UNPOISON(ptr, size) __asan_unpoison_memory_region(ptr, size)
#else
#define KIWI_POOL_POISON(ptr, size) ((void)0)
#define KIWI_POOL_UNPOISON(ptr, size) ((void)0)
#endif

namespace kiwi::reclaim {

namespace {

void* OsAllocate(std::size_t rounded) {
  return ::operator new(rounded, std::align_val_t{SlabPool::kAlignment});
}

void OsFree(void* block) {
  ::operator delete(block, std::align_val_t{SlabPool::kAlignment});
}

}  // namespace

SlabPool::~SlabPool() { Trim(); }

std::size_t SlabPool::ClassFor(std::size_t rounded, bool create) {
  for (std::size_t i = 0; i < kMaxSizeClasses; ++i) {
    std::size_t current = classes_[i].bytes.load(std::memory_order_acquire);
    if (current == rounded) return i;
    if (current == 0) {
      if (!create) return kMaxSizeClasses;
      if (classes_[i].bytes.compare_exchange_strong(
              current, rounded, std::memory_order_acq_rel)) {
        return i;
      }
      class_cas_retries_.fetch_add(1, std::memory_order_relaxed);
      if (current == rounded) return i;  // lost the race to the same size
    }
  }
  return kMaxSizeClasses;
}

void* SlabPool::Allocate(std::size_t bytes) {
  const std::size_t rounded = RoundedSize(bytes);
  live_bytes_.fetch_add(rounded, std::memory_order_relaxed);
  const std::size_t cls = ClassFor(rounded, /*create=*/true);
  if (cls == kMaxSizeClasses) {
    unpooled_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return OsAllocate(rounded);
  }

  // Fast path: the calling thread's own cache — no synchronization.
  ClassCache& cache = caches_[ThreadRegistry::CurrentSlot()].classes[cls];
  if (cache.head != nullptr) {
    FreeSlab* slab = cache.head;
    cache.head = slab->next;
    cache.count--;
    hits_.fetch_add(1, std::memory_order_relaxed);
    pooled_bytes_.fetch_sub(rounded, std::memory_order_relaxed);
    KIWI_POOL_UNPOISON(slab, rounded);
    return slab;
  }

  // Miss: refill one slab from the global spill list.
  SizeClass& sc = classes_[cls];
  FreeSlab* slab = nullptr;
  while (sc.lock.test_and_set(std::memory_order_acquire)) {
  }
  if (sc.spill_head != nullptr) {
    slab = sc.spill_head;
    sc.spill_head = slab->next;
    sc.spill_count--;
  }
  sc.lock.clear(std::memory_order_release);
  if (slab != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    pooled_bytes_.fetch_sub(rounded, std::memory_order_relaxed);
    KIWI_POOL_UNPOISON(slab, rounded);
    return slab;
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  return OsAllocate(rounded);
}

void SlabPool::Deallocate(void* block, std::size_t bytes) {
  KIWI_DASSERT((reinterpret_cast<std::uintptr_t>(block) % kAlignment) == 0,
               "deallocating a block the pool never issued");
  const std::size_t rounded = RoundedSize(bytes);
  live_bytes_.fetch_sub(rounded, std::memory_order_relaxed);
  const std::size_t cls = ClassFor(rounded, /*create=*/true);
  if (cls == kMaxSizeClasses) {
    unpooled_.fetch_add(1, std::memory_order_relaxed);
    OsFree(block);
    return;
  }

  auto* slab = static_cast<FreeSlab*>(block);
  recycled_.fetch_add(1, std::memory_order_relaxed);
  pooled_bytes_.fetch_add(rounded, std::memory_order_relaxed);

  ClassCache& cache = caches_[ThreadRegistry::CurrentSlot()].classes[cls];
  if (cache.count < kThreadCacheSlabs) {
    slab->next = cache.head;
    cache.head = slab;
    cache.count++;
    KIWI_POOL_POISON(reinterpret_cast<char*>(slab) + sizeof(FreeSlab),
                     rounded - sizeof(FreeSlab));
    return;
  }

  // Cache full: spill to the global list.  Poison before publishing: once
  // the lock is released another thread may pop and reissue the slab, and
  // a late poison would then land on its live chunk.
  spills_.fetch_add(1, std::memory_order_relaxed);
  KIWI_POOL_POISON(reinterpret_cast<char*>(slab) + sizeof(FreeSlab),
                   rounded - sizeof(FreeSlab));
  SizeClass& sc = classes_[cls];
  while (sc.lock.test_and_set(std::memory_order_acquire)) {
  }
  slab->next = sc.spill_head;
  sc.spill_head = slab;
  sc.spill_count++;
  sc.lock.clear(std::memory_order_release);
}

std::size_t SlabPool::Trim() {
  // Quiescent by contract: no concurrent Allocate/Deallocate, so walking
  // other threads' caches is safe.
  std::size_t freed = 0;
  std::uint64_t freed_bytes = 0;
  const auto drain = [&](FreeSlab*& head, std::size_t rounded) {
    while (head != nullptr) {
      FreeSlab* slab = head;
      KIWI_POOL_UNPOISON(slab, rounded);
      head = slab->next;
      OsFree(slab);
      ++freed;
      freed_bytes += rounded;
    }
  };
  for (std::size_t cls = 0; cls < kMaxSizeClasses; ++cls) {
    const std::size_t rounded =
        classes_[cls].bytes.load(std::memory_order_acquire);
    if (rounded == 0) continue;
    for (auto& thread_cache : caches_) {
      ClassCache& cache = thread_cache.classes[cls];
      drain(cache.head, rounded);
      cache.count = 0;
    }
    SizeClass& sc = classes_[cls];
    drain(sc.spill_head, rounded);
    sc.spill_count = 0;
  }
  pooled_bytes_.fetch_sub(freed_bytes, std::memory_order_relaxed);
  trims_.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

SlabPool::Stats SlabPool::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.recycled = recycled_.load(std::memory_order_relaxed);
  stats.spills = spills_.load(std::memory_order_relaxed);
  stats.unpooled = unpooled_.load(std::memory_order_relaxed);
  stats.trims = trims_.load(std::memory_order_relaxed);
  stats.class_cas_retries = class_cas_retries_.load(std::memory_order_relaxed);
  stats.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  stats.pooled_bytes = pooled_bytes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace kiwi::reclaim
