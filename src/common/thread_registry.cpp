#include "common/thread_registry.h"

#include "common/assert.h"

namespace kiwi {
namespace {

SlotAllocator<kMaxThreads> g_slots;

/// The thread's slot (kMaxThreads: none yet), released at thread exit.
struct ThreadSlotReleaser {
  std::size_t slot = kMaxThreads;
  ~ThreadSlotReleaser() {
    if (slot < kMaxThreads) g_slots.Release(slot);
  }
};

thread_local ThreadSlotReleaser t_releaser;

}  // namespace

std::size_t ThreadRegistry::CurrentSlot() {
  if (t_releaser.slot == kMaxThreads) {
    t_releaser.slot = g_slots.Acquire();
    KIWI_ASSERT(t_releaser.slot < kMaxThreads,
                "more than kMaxThreads concurrent threads");
  }
  return t_releaser.slot;
}

std::size_t ThreadRegistry::HighWater() { return g_slots.HighWater(); }

bool ThreadRegistry::IsRegistered() { return t_releaser.slot < kMaxThreads; }

}  // namespace kiwi
