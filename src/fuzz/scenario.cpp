#include "fuzz/scenario.h"

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/test_hooks.h"
#include "core/kiwi_map.h"

namespace kiwi::core {

/// Friend of KiWiMap (declared in kiwi_map.h): lets directed scenarios
/// trigger a rebalance on one specific chunk instead of relying on policy
/// probabilities.
class FuzzScenarioPeer {
 public:
  explicit FuzzScenarioPeer(KiWiMap& map) : map_(map) {}

  Chunk* Locate(Key key) {
    reclaim::EbrGuard guard(map_.ebr_);
    return map_.LocateChunk(key);
  }

  void Rebalance(Chunk* chunk) { map_.Rebalance(chunk, {}); }

 private:
  KiWiMap& map_;
};

}  // namespace kiwi::core

namespace kiwi::fuzz {
namespace {

using core::Chunk;
using core::FuzzScenarioPeer;
using core::KiWiConfig;
using core::KiWiMap;

// ---- handshake gates ----------------------------------------------------
//
// TestHooks hooks are plain function pointers, so the choreography lives in
// file-scope state: each participating thread sets a role, and the hooks
// block specific (role, firing-count) pairs on explicit gates.
// Every wait has a generous deadline — a timeout aborts the choreography
// and reports a setup note instead of hanging the suite.

thread_local char t_role = 0;          // 'A' leader, 'B' straggler
thread_local int t_engage_fires = 0;   // per-thread rebalance_during_engage
thread_local int t_splice_fires = 0;   // per-thread replace_before_splice

struct Gate {
  std::atomic<bool> arrived{false};
  std::atomic<bool> released{false};
  void Reset() {
    arrived.store(false, std::memory_order_relaxed);
    released.store(false, std::memory_order_relaxed);
  }
};

Gate g_a_at_seal;    // A holds a stale ro->next, about to cap-seal
Gate g_b_in_loop;    // B holds the same stale ro->next
Gate g_a_at_splice;  // A finished consensus, about to splice

bool AwaitFlag(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

void ReleaseAllGates() {
  g_a_at_seal.released.store(true, std::memory_order_release);
  g_b_in_loop.released.store(true, std::memory_order_release);
  g_a_at_splice.released.store(true, std::memory_order_release);
}

/// rebalance_during_engage: A passes its first iteration (engaging X) and
/// blocks on the second (holding next=Y, about to cap-seal); B blocks on
/// its first (holding the same next=Y).
void EngageGateHook(TestHooks::Site) {
  ++t_engage_fires;
  if (t_role == 'A' && t_engage_fires == 2) {
    g_a_at_seal.arrived.store(true, std::memory_order_release);
    AwaitFlag(g_a_at_seal.released);
  } else if (t_role == 'B' && t_engage_fires == 1) {
    g_b_in_loop.arrived.store(true, std::memory_order_release);
    AwaitFlag(g_b_in_loop.released);
  }
}

/// replace_before_splice: A blocks after winning consensus so B can run
/// its whole divergent rebalance first; B passes.
void SpliceGateHook(TestHooks::Site) {
  ++t_splice_fires;
  if (t_role == 'A' && t_splice_fires == 1) {
    g_a_at_splice.arrived.store(true, std::memory_order_release);
    AwaitFlag(g_a_at_splice.released);
  }
}

}  // namespace

ScenarioResult RunEngageStragglerScenario() {
  g_a_at_seal.Reset();
  g_b_in_loop.Reset();
  g_a_at_splice.Reset();

  // Layout: four chunks [1-4][5-8][9-12][13-16] at capacity 8 (bulk fill
  // ratio 1/2), then sparsify the first three to one live cell each.  With
  // per-replacement-chunk budget kFillRatio*capacity = 4 cells, the engage
  // policy approves merging adjacent one-cell chunks, and max_engaged=2
  // forces the cap seal the disagreement window needs (policy-based seals
  // are arithmetically consistent across helpers; only the cap seal can
  // split their views).
  KiWiConfig config;
  config.chunk_capacity = 8;
  config.max_engaged_chunks = 2;
  config.rebalance_probability = 0;  // only explicit rebalances below
  std::vector<KiWiMap::Entry> entries;
  for (Key k = 1; k <= 16; ++k) {
    entries.emplace_back(k, static_cast<Value>(k) * 100);
  }
  KiWiMap map(std::span<const KiWiMap::Entry>(entries), config);
  for (const Key k : {2, 3, 4, 6, 7, 8, 10, 11, 12}) map.Remove(k);
  map.CompactAll();  // rebuild each chunk alone: V{1} X{5} Y{9} Z{13-16}
  map.DrainReclamation();

  FuzzScenarioPeer peer(map);
  Chunk* v = peer.Locate(1);
  Chunk* x = peer.Locate(5);
  Chunk* y = peer.Locate(9);
  // The choreography keeps these chunks alive until their roles are done
  // (nothing retires V/X before A and B are both inside the rebalance), so
  // holding raw pointers across the thread launches is safe here.
  if (v == x || x == y || v->Next() != x || x->Next() != y ||
      v->AllocatedCells() != 1 || x->AllocatedCells() != 1 ||
      y->AllocatedCells() != 1) {
    return {true, "setup: expected three adjacent one-cell chunks"};
  }

  ScenarioResult result;
  {
    TestHooks::Scoped engage_gate(TestHooks::kRebalanceDuringEngage,
                                  &EngageGateHook);
    TestHooks::Scoped splice_gate(TestHooks::kReplaceBeforeSplice,
                                  &SpliceGateHook);

    // A: engages V then X; blocks holding next=Y just before the cap seal.
    std::thread a([&] {
      t_role = 'A';
      peer.Rebalance(v);
    });
    if (!AwaitFlag(g_a_at_seal.arrived)) {
      ReleaseAllGates();
      a.join();
      return {true, "setup: leader never reached the seal gate"};
    }

    // B: joins A's rebalance object at X; blocks holding the same next=Y.
    std::thread b([&] {
      t_role = 'B';
      peer.Rebalance(x);
    });
    if (!AwaitFlag(g_b_in_loop.arrived)) {
      ReleaseAllGates();
      a.join();
      b.join();
      return {true, "setup: straggler never entered the engage loop"};
    }

    // A seals at the cap, computes last=X, freezes, builds {1,5}, wins the
    // replacement consensus, and blocks before its splice.
    g_a_at_seal.released.store(true, std::memory_order_release);
    if (!AwaitFlag(g_a_at_splice.arrived)) {
      ReleaseAllGates();
      a.join();
      b.join();
      return {true, "setup: leader never reached the splice gate"};
    }

    // B wakes with the stale next=Y: its engagement CAS lands after A's
    // last-engaged walk, so B sees last=Y.  With the consensus intact B
    // adopts A's answer and Y survives as an orphan; under the mutant B
    // keeps its own view, splices A's {1,5}-only replacement, and retires
    // Y — dropping key 9.
    g_b_in_loop.released.store(true, std::memory_order_release);
    b.join();
    g_a_at_splice.released.store(true, std::memory_order_release);
    a.join();
  }

  map.CheckInvariants();
  std::ostringstream lost;
  for (const Key k : {Key{1}, Key{5}, Key{9}, Key{13}, Key{14}, Key{15},
                      Key{16}}) {
    const auto got = map.Get(k);
    if (got != static_cast<Value>(k) * 100) {
      if (!lost.str().empty()) lost << ", ";
      lost << "key " << k << (got ? " corrupted" : " lost");
    }
  }
  if (!lost.str().empty()) {
    result.ok = false;
    result.message = "engage-straggler interleaving: " + lost.str() +
                     " (engaged-sector views diverged past the splice)";
  }
  return result;
}

std::vector<const char*> ScenarioNames() { return {"engage_straggler"}; }

ScenarioResult RunScenario(const std::string& name) {
  if (name == "engage_straggler") return RunEngageStragglerScenario();
  return {false, "unknown scenario: " + name};
}

}  // namespace kiwi::fuzz
