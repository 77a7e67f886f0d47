// Snapshot-capable concurrent hash trie — the repository's analogue of
// Ctrie (Prokopec et al. [32]), the remaining row of the paper's Table 1.
//
// Shape: a hash-array-mapped trie (6 hash bits per level).  Branch nodes
// (CNodes) are immutable bitmap+array records; each is held behind a
// mutable indirection cell (INode) that updates CAS.  Every INode carries
// the write generation it belongs to; Snapshot() bumps the generation (under
// the same snapshot-preferring epoch lock proven in the SnapTree
// substitute), freezing the entire current trie, and writers lazily clone
// stale INodes on their way down — Ctrie's lazy copy-on-write, with
// generation stamps standing in for the original's GCAS protocol.
//
// Faithful Table-1 properties:
//  * atomic snapshots, any number of them concurrently;
//  * NO partial snapshots: a range query must take a full snapshot, walk all
//    of it, filter and sort ("in Ctrie, partial snapshots cannot be
//    obtained") — which is why it loses the paper's scan benchmarks;
//  * puts are hampered while snapshots are live (every update copies its
//    path; an SNode update is a new SNode + new CNode + INode CAS).
//
// Keys are hashed with splitmix64 — a bijection on 64-bit values, so two
// distinct keys always diverge within the 11-level hash and the original's
// collision lists (LNodes) are unnecessary.  Removal does not contract
// single-child paths (no tomb/contract dance); the trie stays slightly
// larger after heavy deletion, which only handicaps ctrie itself.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/random.h"
#include "reclaim/ebr.h"

namespace kiwi::baselines {

class HashTrie {
 public:
  using Entry = std::pair<Key, Value>;

  HashTrie();
  ~HashTrie();
  HashTrie(const HashTrie&) = delete;
  HashTrie& operator=(const HashTrie&) = delete;

  /// Insert or overwrite.  Copies the leaf's branch node.
  void Put(Key key, Value value);

  /// Remove `key` if present.
  void Remove(Key key);

  /// Read the latest value.  Lock-free descent.
  std::optional<Value> Get(Key key);

  /// Atomic range read: takes a FULL snapshot, filters [from, to], sorts.
  /// This is the honest Ctrie cost — partial snapshots are unsupported.
  std::size_t Scan(Key from_key, Key to_key, std::vector<Entry>& out);

  template <typename F>
  std::size_t Scan(Key from_key, Key to_key, F&& yield) {
    std::vector<Entry> buffer;
    Scan(from_key, to_key, buffer);
    for (const Entry& entry : buffer) yield(entry.first, entry.second);
    return buffer.size();
  }

  std::size_t Size();
  std::size_t MemoryFootprint() const;

  /// Diagnostics: stale INodes cloned by writers (COW pressure).
  std::uint64_t CowClones() const {
    return cow_clones_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kBitsPerLevel = 6;
  static constexpr std::uint64_t kLevelMask = (1u << kBitsPerLevel) - 1;

  struct CNode;
  struct INode;

  /// Leaf: immutable key/value pair.
  struct SNode {
    Key key;
    Value value;
  };

  /// Tagged branch pointer: low bit 1 = SNode, 0 = INode.
  class Branch {
   public:
    Branch() = default;
    static Branch Leaf(SNode* node) {
      Branch b;
      b.bits_ = reinterpret_cast<std::uintptr_t>(node) | 1u;
      return b;
    }
    static Branch Indirect(INode* node) {
      Branch b;
      b.bits_ = reinterpret_cast<std::uintptr_t>(node);
      return b;
    }
    bool IsLeaf() const { return (bits_ & 1u) != 0; }
    SNode* AsLeaf() const {
      return reinterpret_cast<SNode*>(bits_ & ~std::uintptr_t{1});
    }
    INode* AsIndirect() const { return reinterpret_cast<INode*>(bits_); }

   private:
    std::uintptr_t bits_ = 0;
  };

  /// Immutable branch record: a bitmap of occupied slots and the packed
  /// children array (popcount addressing).
  struct CNode {
    std::uint64_t bitmap = 0;
    std::vector<Branch> children;

    int SlotIndex(std::uint64_t bit) const {
      return std::popcount(bitmap & (bit - 1));
    }
  };

  /// Mutable indirection cell; the only CAS target.  `gen` freezes it: a
  /// writer may CAS `main` only when gen matches the current generation.
  struct INode {
    std::atomic<CNode*> main;
    std::uint64_t gen;
    INode(CNode* cnode, std::uint64_t g) : main(cnode), gen(g) {}
  };

  /// Same snapshot-preferring shared/exclusive lock as the SnapTree
  /// substitute: it guarantees no two writers ever run under different
  /// generations (see cow_tree.h for the starvation/double-retire story).
  class EpochLock {
   public:
    void WriterEnter() {
      while (true) {
        std::uint64_t word = word_.load(std::memory_order_seq_cst);
        if ((word & kSnapshotBit) != 0) {
          std::this_thread::yield();
          continue;
        }
        if (word_.compare_exchange_weak(word, word + 1,
                                        std::memory_order_seq_cst)) {
          return;
        }
      }
    }
    void WriterExit() { word_.fetch_sub(1, std::memory_order_seq_cst); }
    void SnapshotEnter() {
      while (true) {
        std::uint64_t word = word_.load(std::memory_order_seq_cst);
        if ((word & kSnapshotBit) != 0) {
          std::this_thread::yield();
          continue;
        }
        if (word_.compare_exchange_weak(word, word | kSnapshotBit,
                                        std::memory_order_seq_cst)) {
          break;
        }
      }
      while ((word_.load(std::memory_order_seq_cst) & ~kSnapshotBit) != 0) {
        std::this_thread::yield();
      }
    }
    void SnapshotExit() {
      word_.fetch_and(~kSnapshotBit, std::memory_order_seq_cst);
    }

   private:
    static constexpr std::uint64_t kSnapshotBit = std::uint64_t{1} << 62;
    std::atomic<std::uint64_t> word_{0};
  };

  class WriterPassScope {
   public:
    explicit WriterPassScope(EpochLock& lock) : lock_(lock) {
      lock_.WriterEnter();
    }
    ~WriterPassScope() { lock_.WriterExit(); }
    WriterPassScope(const WriterPassScope&) = delete;
    WriterPassScope& operator=(const WriterPassScope&) = delete;

   private:
    EpochLock& lock_;
  };

  static std::uint64_t HashKey(Key key) {
    std::uint64_t state = static_cast<std::uint64_t>(key);
    return Splitmix64(state);
  }
  static std::uint64_t BitAt(std::uint64_t hash, int level) {
    return std::uint64_t{1} << ((hash >> (level * kBitsPerLevel)) &
                                kLevelMask);
  }

  /// One update attempt; false = CAS lost, restart from the root.
  bool TryPut(Key key, Value value, std::uint64_t gen);
  bool TryRemove(Key key, std::uint64_t gen);

  void CollectAll(const CNode* cnode, Key from, Key to,
                  std::vector<Entry>& out) const;
  void DestroyCNode(CNode* cnode);

  EpochLock epoch_lock_;
  std::atomic<std::uint64_t> gen_{1};
  std::atomic<INode*> root_;
  mutable reclaim::Ebr ebr_;
  std::atomic<std::size_t> entry_count_{0};
  std::atomic<std::size_t> node_count_{1};
  std::atomic<std::uint64_t> cow_clones_{0};
};

}  // namespace kiwi::baselines
