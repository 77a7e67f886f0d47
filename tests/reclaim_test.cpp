// Unit + stress tests for epoch-based reclamation (EBR).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "reclaim/ebr.h"

namespace kiwi::reclaim {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>& counter) : alive(counter) {
    alive.fetch_add(1);
  }
  ~Tracked() { alive.fetch_sub(1); }
  std::atomic<int>& alive;
};

TEST(Ebr, RetiredObjectNotFreedUnderActiveGuard) {
  Ebr ebr;
  std::atomic<int> alive{0};
  auto* object = new Tracked(alive);
  {
    EbrGuard guard(ebr);
    ebr.RetireObject(object);
    // Force many collection attempts; our own guard pins the epoch, so at
    // most one advance can happen and the object must survive.
    for (int i = 0; i < 10; ++i) ebr.Collect();
    EXPECT_EQ(alive.load(), 1);
  }
  // After the guard drops, a few collects free it (needs +2 epochs).
  for (int i = 0; i < 4 && alive.load() > 0; ++i) {
    EbrGuard guard(ebr);
    ebr.Collect();
  }
  EXPECT_EQ(alive.load(), 0);
  EXPECT_EQ(ebr.PendingCount(), 0u);
}

TEST(Ebr, GuardsAreReentrant) {
  Ebr ebr;
  EbrGuard outer(ebr);
  {
    EbrGuard inner(ebr);
    EbrGuard innermost(ebr);
  }
  // Exiting inner guards must not deactivate the outer one: retire+collect
  // cannot free while we are still inside.
  std::atomic<int> alive{0};
  ebr.RetireObject(new Tracked(alive));
  for (int i = 0; i < 10; ++i) ebr.Collect();
  EXPECT_EQ(alive.load(), 1);
}

TEST(Ebr, DestructorDrainsEverything) {
  std::atomic<int> alive{0};
  {
    Ebr ebr;
    EbrGuard guard(ebr);
    for (int i = 0; i < 100; ++i) ebr.RetireObject(new Tracked(alive));
    EXPECT_GT(alive.load(), 0);
  }
  EXPECT_EQ(alive.load(), 0);
}

TEST(Ebr, CollectAllQuiescentFreesImmediately) {
  Ebr ebr;
  std::atomic<int> alive{0};
  {
    EbrGuard guard(ebr);
    for (int i = 0; i < 50; ++i) ebr.RetireObject(new Tracked(alive));
  }
  EXPECT_EQ(ebr.CollectAllQuiescent(), 50u);
  EXPECT_EQ(alive.load(), 0);
}

TEST(Ebr, EpochAdvancesWhenQuiescent) {
  std::atomic<int> alive{0};
  Ebr ebr;  // destructs before `alive`
  const std::uint64_t before = ebr.GlobalEpoch();
  for (int i = 0; i < 3; ++i) {
    EbrGuard guard(ebr);
    ebr.RetireObject(new Tracked(alive));
    ebr.Collect();
  }
  EXPECT_GT(ebr.GlobalEpoch(), before);
}

// Readers chase a shared pointer while a writer keeps swapping and retiring
// the old target; ASan (run in CI config) catches any premature free.
TEST(Ebr, SwapAndReadStress) {
  Ebr ebr;
  std::atomic<int> alive{0};
  std::atomic<Tracked*> shared{new Tracked(alive)};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EbrGuard guard(ebr);
        Tracked* current = shared.load(std::memory_order_acquire);
        // Touch the object: must still be alive.
        ASSERT_GE(current->alive.load(), 1);
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      EbrGuard guard(ebr);
      auto* fresh = new Tracked(alive);
      Tracked* old = shared.exchange(fresh, std::memory_order_acq_rel);
      ebr.RetireObject(old);
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& reader : readers) reader.join();
  delete shared.load();
  // Everything else must drain by destruction (checked by Tracked count).
  ebr.CollectAllQuiescent();
  EXPECT_EQ(alive.load(), 0);
}

}  // namespace
}  // namespace kiwi::reclaim
