// Stable small thread ids.
//
// KiWi's pending put array (PPA, one per chunk) and pending scan array (PSA,
// global) are indexed by thread: `ppa[NUM_THREADS]` in Algorithm 1.  C++
// std::thread::id is neither small nor dense, so this registry hands out
// slots in [0, kMaxThreads) on a thread's first map access and recycles the
// slot when the thread exits (via a thread_local destructor).
//
// Slot recycling is safe for the PPA/PSA protocols because a thread always
// clears its entries before finishing an operation, and a thread only exits
// between operations.
#pragma once

#include <atomic>
#include <cstddef>

#include "common/config.h"

namespace kiwi {

/// Lowest-free-slot allocator over [0, N) with a high-water mark that only
/// rises, so arrays indexed by slot are walked up to HighWater() instead of
/// N: thread slots (the registry) and each map's Snapshot slots.  Release
/// pairs with the next Acquire of the slot, handing over its state.
template <std::size_t N>
class SlotAllocator {
 public:
  /// Claim the lowest free slot, raising the high-water mark past it before
  /// returning.  Returns N when all N slots are taken.
  std::size_t Acquire() {
    for (std::size_t s = 0; s < N; ++s) {
      bool expected = false;
      if (used_[s].compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
        std::size_t hw = high_water_.load(std::memory_order_relaxed);
        while (hw < s + 1 && !high_water_.compare_exchange_weak(
                                 hw, s + 1, std::memory_order_relaxed)) {
        }
        return s;
      }
    }
    return N;
  }

  void Release(std::size_t slot) {
    used_[slot].store(false, std::memory_order_release);
  }

  /// One past the highest slot ever claimed.
  std::size_t HighWater() const {
    return high_water_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> used_[N]{};
  std::atomic<std::size_t> high_water_{0};
};

class ThreadRegistry {
 public:
  /// The calling thread's slot, assigned on first use.  Aborts if more than
  /// kMaxThreads threads are simultaneously registered.
  static std::size_t CurrentSlot();

  /// Number of slots ever handed out simultaneously (high-water mark).
  /// Arrays indexed by slot may be scanned up to this bound instead of
  /// kMaxThreads.
  static std::size_t HighWater();

  /// Test hook: true if the calling thread currently holds a slot.
  static bool IsRegistered();
};

}  // namespace kiwi
